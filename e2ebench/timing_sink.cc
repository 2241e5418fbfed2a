#include "timing_sink.h"

#include <chrono>
#include <cstdio>

namespace fats::e2e {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSelect: return "select";
    case Phase::kRoundStartGap: return "round_start_gap";
    case Phase::kLocalGap: return "local_gap";
    case Phase::kCommit: return "commit";
    case Phase::kUplinkAggregate: return "uplink_aggregate";
    case Phase::kEval: return "eval";
    case Phase::kTail: return "tail";
    case Phase::kRewrite: return "rewrite";
    case Phase::kJournal: return "journal";
    case Phase::kOther: return "other";
    case Phase::kCount: break;
  }
  return "?";
}

TimingSink::TimingSink(TrainEventSink* forward, int64_t local_iters_e)
    : forward_(forward), e_(local_iters_e) {}

int64_t TimingSink::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TimingSink::BeginPass(PassKind pass, int64_t parent) {
  current_ = PassTrace{};
  current_.pass = pass;
  current_.parent = parent;
  replaying_ = false;
  replay_closed_ = false;
  saved_this_iteration_ = false;
  iteration_ = IterationTrace{};
  in_pass_ = true;
  cursor_ns_ = NowNs();
}

void TimingSink::EndPass(int64_t wall_ns) {
  Close(Phase::kOther);
  current_.wall_ns = wall_ns;
  passes_.push_back(current_);
  in_pass_ = false;
}

int64_t TimingSink::Close(Phase phase) {
  const int64_t now = NowNs();
  if (!in_pass_) {
    cursor_ns_ = now;
    return now;
  }
  const int64_t duration = now - cursor_ns_;
  current_.phases[static_cast<int>(phase)] += duration;
  if (replaying_ && !replay_closed_ && phase == Phase::kEval) {
    current_.replay_eval_ns += duration;
  }
  spans_.push_back({phase, current_.pass, cursor_ns_, now, current_.parent});
  cursor_ns_ = now;
  return now;
}

void TimingSink::Forwarded(int64_t start) {
  const int64_t now = NowNs();
  if (in_pass_) {
    const int64_t duration = now - start;
    current_.phases[static_cast<int>(Phase::kJournal)] += duration;
    if (replaying_ && !replay_closed_) current_.replay_journal_ns += duration;
    spans_.push_back(
        {Phase::kJournal, current_.pass, start, now, current_.parent});
  }
  cursor_ns_ = now;
}

void TimingSink::SaveEvent(int64_t t) {
  if (saved_this_iteration_) {
    Close(Phase::kCommit);
    return;
  }
  const bool round_start = (t - 1) % e_ == 0;
  const int64_t start = cursor_ns_;
  const int64_t now =
      Close(round_start ? Phase::kRoundStartGap : Phase::kLocalGap);
  iteration_.pass = current_.pass;
  iteration_.round_start = round_start;
  iteration_.compute_gap_ns = now - start;
  saved_this_iteration_ = true;
}

void TimingSink::OnClientSelection(int64_t round,
                                   const std::vector<int64_t>& selection) {
  const int64_t t = Close(Rewriting() ? Phase::kRewrite : Phase::kSelect);
  if (forward_ != nullptr) {
    forward_->OnClientSelection(round, selection);
    Forwarded(t);
  }
}

void TimingSink::OnMinibatch(int64_t iteration, int64_t client,
                             const std::vector<int64_t>& indices) {
  if (Rewriting()) {
    Close(Phase::kRewrite);
  } else {
    SaveEvent(iteration);
  }
  const int64_t t = cursor_ns_;
  if (forward_ != nullptr) {
    forward_->OnMinibatch(iteration, client, indices);
    Forwarded(t);
  }
}

void TimingSink::OnLocalModel(int64_t iteration, int64_t client,
                              const Tensor& params) {
  if (Rewriting()) {
    // ReplayFrom emits no event before its first local model: everything
    // since the last rewrite event is the replay's first compute gap.
    replaying_ = true;
    replay_start_ns_ = cursor_ns_;
  }
  SaveEvent(iteration);
  ++iteration_.participants;
  const int64_t t = cursor_ns_;
  if (forward_ != nullptr) {
    forward_->OnLocalModel(iteration, client, params);
    Forwarded(t);
  }
}

void TimingSink::OnGlobalModel(int64_t round, const Tensor& params) {
  // Round 0 is the initial model, recorded by the first TrainUntil call.
  const int64_t t =
      Close(round == 0 ? Phase::kOther : Phase::kUplinkAggregate);
  if (forward_ != nullptr) {
    forward_->OnGlobalModel(round, params);
    Forwarded(t);
  }
}

void TimingSink::OnRoundRecord(const RoundRecord& record) {
  const int64_t t = Close(Phase::kEval);
  ++rounds_recorded_;
  if (forward_ != nullptr) {
    forward_->OnRoundRecord(record);
    Forwarded(t);
  }
}

void TimingSink::OnIterationComplete(const IterationMark& mark) {
  const int64_t t = Close(Phase::kTail);
  if (in_pass_) iterations_.push_back(iteration_);
  iteration_ = IterationTrace{};
  saved_this_iteration_ = false;
  if (forward_ != nullptr) {
    forward_->OnIterationComplete(mark);
    Forwarded(t);
  }
}

void TimingSink::OnTruncate(int64_t from_iteration) {
  const int64_t t = Close(Rewriting() ? Phase::kRewrite : Phase::kOther);
  if (forward_ != nullptr) {
    forward_->OnTruncate(from_iteration);
    Forwarded(t);
  }
}

void TimingSink::OnGenerationBump(uint64_t generation) {
  const int64_t t = Close(Rewriting() ? Phase::kRewrite : Phase::kOther);
  if (forward_ != nullptr) {
    forward_->OnGenerationBump(generation);
    Forwarded(t);
  }
}

void TimingSink::OnUnlearnBegin() {
  const int64_t t = Close(Phase::kOther);
  if (forward_ != nullptr) {
    forward_->OnUnlearnBegin();
    Forwarded(t);
  }
}

void TimingSink::OnUnlearnEnd() {
  // A flush without a replay spends the whole bracket rewriting; after a
  // replay, the gap is the replay's exit (final model restore).
  const int64_t t = Close(replaying_ ? Phase::kTail : Phase::kRewrite);
  if (replaying_ && in_pass_) current_.replay_ns = t - replay_start_ns_;
  replay_closed_ = true;
  if (forward_ != nullptr) {
    forward_->OnUnlearnEnd();
    Forwarded(t);
  }
}

bool TimingSink::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "phase,pass,parent,start_ns,end_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s,%s,%lld,%lld,%lld\n", PhaseName(span.phase),
                 span.pass == PassKind::kTrain ? "train" : "flush",
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace fats::e2e
