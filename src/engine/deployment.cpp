#include "sa/engine/deployment.hpp"

#include <algorithm>
#include <utility>

#include "sa/common/error.hpp"

namespace sa {

std::vector<FrameGroup> group_frame_observations(
    std::vector<std::vector<StreamingReceiver::StreamPacket>> per_ap_packets,
    const std::vector<Vec2>& ap_positions, std::size_t slack_samples) {
  SA_EXPECTS(per_ap_packets.size() == ap_positions.size());

  struct Entry {
    std::size_t start;
    std::size_t ap_index;
    ReceivedPacket packet;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < per_ap_packets.size(); ++i) {
    for (auto& sp : per_ap_packets[i]) {
      entries.push_back({sp.absolute_start, i, std::move(sp.packet)});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.start != b.start ? a.start < b.start : a.ap_index < b.ap_index;
  });

  std::vector<FrameGroup> groups;
  for (auto& e : entries) {
    if (groups.empty() ||
        e.start > groups.back().absolute_start + slack_samples) {
      groups.push_back({e.start, {}});
    }
    groups.back().observations.push_back(
        {ap_positions[e.ap_index], std::move(e.packet)});
  }
  // One DATA decode per transmission: a decision reads only the
  // strongest AP's frame, so the other APs' pending samples are freed
  // undecoded.
  for (FrameGroup& g : groups) {
    const ApObservation& best = Coordinator::best_observation(g.observations);
    for (ApObservation& o : g.observations) {
      if (&o == &best) {
        decode_data(o.packet);
      } else {
        o.packet.data_samples = CVec();
      }
    }
  }
  return groups;
}

}  // namespace sa
