// A TrainEventSink that times the trainer's phases from outside the library.
//
// FatsTrainer emits an event at every save(·) of Algorithm 1 and at every
// iteration commit, in commit order, on the calling thread. The sink stamps
// each event with steady_clock and assigns the time since the previous event
// to the phase that the event closes:
//
//   iteration start      -> OnClientSelection   select   (Run round starts)
//   ... -> first save event of the iteration     compute gap: at a round
//                                                start the broadcast plus
//                                                local SGD, else local SGD
//   first -> last save event                     commit   (store saves)
//   last save -> OnGlobalModel                   uplink + aggregate
//   OnGlobalModel -> OnRoundRecord               eval     (test accuracy)
//   ... -> OnIterationComplete                   tail
//   OnUnlearnBegin -> last rewrite event         rewrite  (history rewrite)
//
// Every event is forwarded to `forward` (the journaled session, when one is
// open); the forwarded call's duration is journal time and is taken out of
// the phase it fell in, so the phases of a pass add up to its wall time.
// Spans stay in memory until WriteSpans().

#ifndef FATS_E2EBENCH_TIMING_SINK_H_
#define FATS_E2EBENCH_TIMING_SINK_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fl/train_events.h"

namespace fats::e2e {

enum class Phase : uint8_t {
  kSelect = 0,
  kRoundStartGap,  // broadcast + local SGD of a round-start iteration
  kLocalGap,       // local SGD of an iteration that does not start a round
  kCommit,
  kUplinkAggregate,
  kEval,
  kTail,
  kRewrite,
  kJournal,
  kOther,
  kCount,
};

const char* PhaseName(Phase phase);

inline constexpr int kNumPhases = static_cast<int>(Phase::kCount);
using PhaseTotals = std::array<int64_t, kNumPhases>;  // nanoseconds

enum class PassKind : uint8_t { kTrain = 0, kFlush = 1 };

struct Span {
  Phase phase = Phase::kOther;
  PassKind pass = PassKind::kTrain;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = 0;  // round number (training) or flush id
};

/// One trainer iteration as seen through its events.
struct IterationTrace {
  PassKind pass = PassKind::kTrain;
  bool round_start = false;
  int64_t participants = 0;  // OnLocalModel events
  int64_t compute_gap_ns = 0;
};

/// One timed pass: a TrainUntil call or a Flush.
struct PassTrace {
  PassKind pass = PassKind::kTrain;
  int64_t parent = 0;
  int64_t wall_ns = 0;
  PhaseTotals phases{};
  int64_t replay_ns = 0;         // flush: phases after the last rewrite event
  int64_t replay_eval_ns = 0;    // flush: eval inside the replay
  int64_t replay_journal_ns = 0; // flush: journal inside the replay
};

class TimingSink : public TrainEventSink {
 public:
  /// `forward` is borrowed and may be null; `local_iters_e` is E.
  TimingSink(TrainEventSink* forward, int64_t local_iters_e);

  /// Re-points forwarding (one sink serves a run's successive instances).
  void set_forward(TrainEventSink* forward) { forward_ = forward; }

  /// Brackets one TrainUntil call (`parent` = its round) or one Flush
  /// (`parent` = the flush id). `wall_ns` is the caller's timing of it.
  void BeginPass(PassKind pass, int64_t parent);
  void EndPass(int64_t wall_ns);

  const std::vector<PassTrace>& passes() const { return passes_; }
  const std::vector<IterationTrace>& iterations() const { return iterations_; }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t rounds_recorded() const { return rounds_recorded_; }

  /// Writes every span as CSV (phase,pass,parent,start_ns,end_ns).
  bool WriteSpans(const std::string& path) const;

  void OnClientSelection(int64_t round,
                         const std::vector<int64_t>& selection) override;
  void OnMinibatch(int64_t iteration, int64_t client,
                   const std::vector<int64_t>& indices) override;
  void OnLocalModel(int64_t iteration, int64_t client,
                    const Tensor& params) override;
  void OnGlobalModel(int64_t round, const Tensor& params) override;
  void OnRoundRecord(const RoundRecord& record) override;
  void OnIterationComplete(const IterationMark& mark) override;
  void OnTruncate(int64_t from_iteration) override;
  void OnGenerationBump(uint64_t generation) override;
  void OnUnlearnBegin() override;
  void OnUnlearnEnd() override;

 private:
  static int64_t NowNs();
  /// Charges [cursor_, now) to `phase` and returns now.
  int64_t Close(Phase phase);
  /// Charges the forwarded call that ran from `start` to now to the journal.
  void Forwarded(int64_t start);
  /// A save event (OnMinibatch / OnLocalModel) of iteration `t`.
  void SaveEvent(int64_t t);
  bool Rewriting() const {
    return current_.pass == PassKind::kFlush && !replaying_;
  }

  TrainEventSink* forward_;
  int64_t e_;
  bool in_pass_ = false;
  PassTrace current_;
  int64_t cursor_ns_ = 0;
  bool replaying_ = false;
  bool replay_closed_ = false;
  int64_t replay_start_ns_ = 0;
  bool saved_this_iteration_ = false;
  IterationTrace iteration_;
  int64_t rounds_recorded_ = 0;
  std::vector<PassTrace> passes_;
  std::vector<IterationTrace> iterations_;
  std::vector<Span> spans_;
};

}  // namespace fats::e2e

#endif  // FATS_E2EBENCH_TIMING_SINK_H_
