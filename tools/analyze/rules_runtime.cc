// Runtime-resource confinement: raw-thread, raw-io, hot-alloc.  Threads,
// durable files, and per-step heap memory each have one sanctioned owner —
// fats::ThreadPool (deterministic parallelism, DESIGN.md §7.1), the journal
// and checkpoint writers (durability, §7.3), and Workspace slots plus the
// blocked kernels (the allocation-free hot path, §7.2).  A second owner
// growing back is what these rules catch.

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

void CheckRawThreads(const FileModel& model, std::vector<Finding>* findings) {
  if (!model.file_class.thread_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsStdQualified(tokens, i) || tokens[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string_view t = tokens[i].text;
    if (t != "thread" && t != "jthread" && t != "async") continue;
    AddFinding(model, kRuleRawThread, MatchLine(tokens, i),
               "raw std::thread/std::jthread/std::async outside "
               "src/util/thread_pool: ad-hoc threads bypass the deterministic-"
               "parallelism contract (pre-drawn substreams, ordered "
               "reduction); run parallel work through fats::ThreadPool",
               findings);
  }
}

void CheckRawIo(const FileModel& model, std::vector<Finding>* findings) {
  if (!model.file_class.io_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    const std::string_view t = tokens[i].text;
    // `std::ofstream` anywhere, or a bare `ofstream name` declaration.
    const bool declares = i + 1 < tokens.size() &&
                          tokens[i + 1].kind == TokKind::kIdent;
    const bool raw_io =
        (t == "ofstream" && (IsStdQualified(tokens, i) || declares)) ||
        ((t == "fopen" || t == "fwrite") && IsPunct(tokens, i + 1, "("));
    if (!raw_io) continue;
    AddFinding(model, kRuleRawIo, MatchLine(tokens, i),
               "raw file I/O (std::ofstream/fopen/fwrite) outside the journal "
               "module: durable training state written behind the journal's "
               "back has no CRC framing or fsync discipline, so a crash there "
               "is not recoverable bit-exactly; route writes through "
               "fats::JournalWriter or the checkpoint BinaryWriter",
               findings);
  }
}

// True when [begin, end) holds `+= ... *` within one statement: the
// multiply-accumulate of a raw matmul.
bool HasMultiplyAccumulate(const std::vector<Token>& tokens, size_t begin,
                           size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (!IsPunct(tokens, i, "+=")) continue;
    for (size_t j = i + 1; j < end && !IsPunct(tokens, j, ";"); ++j) {
      if (tokens[j].kind == TokKind::kPunct &&
          tokens[j].text.find('*') != std::string_view::npos) {
        return true;
      }
    }
  }
  return false;
}

// Scans one hot body for Tensor temporaries and, when `mac_loops` is set,
// for-loops at nesting depth >= 3 whose body multiply-accumulates.
void CheckHotBody(const FileModel& model, const FunctionDef& fn,
                  bool mac_loops, std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
    // `Tensor name` declares a value; `Tensor&` / `Tensor*` bind or point.
    if (!IsIdent(tokens, i, "Tensor") ||
        tokens[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    std::string message = "Tensor temporary '";
    message += tokens[i + 1].text;
    message +=
        "' constructed in a hot Forward/Backward body or a helper it "
        "calls: per-step heap "
        "allocation breaks the allocation-free training-step contract; "
        "bind a Workspace slot (ws->Get/Peek) or use a "
        "destination-passing Into op";
    AddFinding(model, kRuleHotAlloc, tokens[i].line, std::move(message),
               findings);
  }
  if (!mac_loops) return;

  std::vector<size_t> loop_ends;  // body ends of the enclosing for-loops
  size_t i = fn.body_begin;
  while (i < fn.body_end) {
    while (!loop_ends.empty() && i >= loop_ends.back()) loop_ends.pop_back();
    size_t body_begin = 0;
    size_t body_end = 0;
    if (!ForBodyExtent(tokens, i, &body_begin, &body_end) ||
        body_end > fn.body_end) {
      ++i;
      continue;
    }
    loop_ends.push_back(body_end);
    if (loop_ends.size() >= 3 &&
        HasMultiplyAccumulate(tokens, body_begin, body_end)) {
      AddFinding(model, kRuleHotAlloc, tokens[i].line,
                 "triple-nested multiply-accumulate loop in a hot "
                 "Forward/Backward body: raw matmuls bypass the "
                 "deterministic blocked kernels; call fats::gemm / the "
                 "tensor_ops Into variants instead",
                 findings);
    }
    i = body_begin;  // descend into the loop body to find deeper nestings
  }
}

bool IsHotEntry(const FunctionDef& fn) {
  return fn.name == "Forward" || fn.name == "Backward" ||
         fn.name == "BackwardParameters";
}

// Forward/Backward/BackwardParameters definitions in src/nn are the
// per-step hot path, and so is every function of the same file that one of
// them calls, directly or through other such functions (a call is a name
// followed by `(` or by template arguments). Helpers are scanned for Tensor
// temporaries only: a dispatched kernel is a deliberate raw loop.
// A function of the same file that no hot body calls, such as a slow
// reference loop, is exempt.
void CheckHotAllocation(const FileModel& model,
                        std::vector<Finding>* findings) {
  if (!model.file_class.hot_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  const std::vector<FunctionDef>& fns = model.functions;
  std::vector<bool> hot(fns.size(), false);
  std::vector<size_t> pending;
  for (size_t f = 0; f < fns.size(); ++f) {
    if (IsHotEntry(fns[f])) {
      hot[f] = true;
      pending.push_back(f);
    }
  }
  while (!pending.empty()) {
    const FunctionDef& caller = fns[pending.back()];
    pending.pop_back();
    for (size_t i = caller.body_begin; i + 1 < caller.body_end; ++i) {
      if (tokens[i].kind != TokKind::kIdent ||
          !(IsPunct(tokens, i + 1, "(") || IsPunct(tokens, i + 1, "<"))) {
        continue;
      }
      for (size_t f = 0; f < fns.size(); ++f) {
        if (!hot[f] && fns[f].name == tokens[i].text) {
          hot[f] = true;
          pending.push_back(f);
        }
      }
    }
  }
  for (size_t f = 0; f < fns.size(); ++f) {
    if (hot[f]) CheckHotBody(model, fns[f], IsHotEntry(fns[f]), findings);
  }
}

}  // namespace

void CheckRuntimeConfinement(const FileModel& model,
                             std::vector<Finding>* findings) {
  CheckRawThreads(model, findings);
  CheckRawIo(model, findings);
  CheckHotAllocation(model, findings);
}

}  // namespace fats::analyze
