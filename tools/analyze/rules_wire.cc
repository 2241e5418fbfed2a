// Wire discipline (rule family 7): raw-wire.  Every model broadcast and
// upload must travel through transport::ReliableChannel, whose retry /
// backoff / CRC-reject protocol is what makes lossy runs bit-identical to
// clean ones (DESIGN.md §7.7).  Core code that frames bytes or touches the
// ring buffer directly —
//
//   std::string frame = transport::EncodeFrame(msg);   // fires
//   wire_->PushFrame(dir, frame);                      // fires
//   ::send(fd, buf, len, 0);                           // fires
//
// — bypasses the recovery protocol, so a dropped or corrupted frame
// silently diverges the trained model instead of being retransmitted.  The
// rule confines frame codecs, ring-buffer primitives, and POSIX socket
// calls to src/transport itself; src/core, src/fl, and src/io must go
// through the channel's delivery API (Deliver / DeliverModel over an
// EncodedModel), which is exempt.

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// Frame-codec and ring-buffer primitives of src/transport, plus the POSIX
// socket surface a future backend would wrap.  Any of these in call
// position outside src/transport is a bypass.
const std::set<std::string_view>& WirePrimitives() {
  static const auto* kSet = new std::set<std::string_view>{
      // wire_format.h codecs
      "EncodeFrame", "DecodeFrame", "EncodeModelPayload",
      "DecodeModelPayload",
      // transport.h ring-buffer primitives
      "PushFrame", "PopFrame", "PushFrameBlocking", "PopFrameBlocking",
      // POSIX socket calls
      "socket", "connect", "bind", "listen", "accept", "sendto", "recvfrom",
      "sendmsg", "recvmsg"};
  return *kSet;
}

// Words that can directly precede a call expression without making the
// `ident ident (` pair a declaration (`return socket(...)` is a call;
// `Status PushFrame(...)` is not).
const std::set<std::string_view>& CallKeywords() {
  static const auto* kSet = new std::set<std::string_view>{
      "return", "co_return", "co_await", "co_yield", "case", "else", "do"};
  return *kSet;
}

// The rule polices the layers that carry model state over the wire.  Other
// modules (tools, tests, benches) exercise the primitives on purpose.
bool InScope(const std::string& path) {
  if (path.find("src/transport/") != std::string::npos) return false;
  return path.find("src/core/") != std::string::npos ||
         path.find("src/fl/") != std::string::npos ||
         path.find("src/io/") != std::string::npos;
}

}  // namespace

void CheckWireDiscipline(const FileModel& model,
                         std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (WirePrimitives().count(tokens[i].text) == 0) continue;
    // `ident ident (` is a declaration (`Status PushFrame(...)`), not a
    // call; member declarations in mocks/fakes are fine.  Keywords that
    // legally precede a call (`return socket(...)`) are not types.
    if (i >= 1 && tokens[i - 1].kind == TokKind::kIdent &&
        CallKeywords().count(tokens[i - 1].text) == 0) {
      continue;
    }
    // `> ident (` closes a template return type — also a declaration.
    if (i >= 1 && IsPunct(tokens, i - 1, ">")) continue;
    AddFinding(model, kRuleRawWire, tokens[i].line,
               "raw wire primitive '" + std::string(tokens[i].text) +
                   "' outside src/transport bypasses the reliable-channel "
                   "recovery protocol (retry/backoff/CRC-reject); route "
                   "model traffic through transport::ReliableChannel "
                   "(DeliverModel over an EncodedModel) instead",
               findings);
  }
}

}  // namespace fats::analyze
