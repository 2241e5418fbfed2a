#include "fl/comm_stats.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace fats {

std::string CommStats::ToString() const {
  return StrFormat(
      "CommStats(rounds=%lld, down=%lld B/%lld msgs, up=%lld B/%lld msgs, "
      "retransmit=%lld B/%lld frames)",
      (long long)counters_.rounds, (long long)counters_.downlink_bytes,
      (long long)counters_.downlink_messages,
      (long long)counters_.uplink_bytes, (long long)counters_.uplink_messages,
      (long long)counters_.retransmit_bytes, (long long)counters_.retransmits);
}

Tensor TransferModel(transport::ReliableChannel* channel,
                     const transport::MessageAddress& address,
                     const transport::EncodedModel& model, CommStats* stats,
                     int64_t* forced_deliveries) {
  Result<transport::ModelDelivery> delivered =
      channel->DeliverModel(address, model);
  FATS_CHECK(delivered.ok())
      << "transport delivery failed: " << delivered.status().ToString();
  if (address.direction == transport::Direction::kDownlink) {
    stats->RecordDownlinkDelivery(delivered->payload_bytes);
  } else {
    stats->RecordUplinkDelivery(delivered->payload_bytes);
  }
  stats->RecordRetransmits(delivered->retransmits,
                           delivered->retransmit_bytes);
  if (delivered->forced) ++*forced_deliveries;
  return std::move(delivered->params);
}

}  // namespace fats
