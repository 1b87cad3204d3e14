// Tests for the cross-AP frame grouping in sa/engine/deployment.hpp:
// group_frame_observations must fuse detections that start within the
// slack of a group's first detection, anchor the window at that first
// detection, order views by (start sample, AP index), and decode each
// frame's DATA once, at its strongest AP. The engine decision stream
// that this grouping feeds is tested end to end in test_session.cpp.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sa/channel/raytracer.hpp"
#include "sa/channel/simulator.hpp"
#include "sa/common/rng.hpp"
#include "sa/engine/deployment.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"

namespace sa {
namespace {

using StreamPacket = StreamingReceiver::StreamPacket;

StreamPacket packet_at(std::size_t start) {
  StreamPacket sp;
  sp.absolute_start = start;
  return sp;
}

TEST(Engine, GroupingDetectionExactlyAtSlackBoundaryFuses) {
  const std::vector<Vec2> positions{{0.0, 0.0}, {10.0, 0.0}};
  const std::size_t slack = 100;
  // AP 1 hears the frame exactly `slack` samples after AP 0: still the
  // same transmission. One sample later: a new one.
  {
    std::vector<std::vector<StreamPacket>> per_ap(2);
    per_ap[0].push_back(packet_at(1000));
    per_ap[1].push_back(packet_at(1000 + slack));
    const auto groups =
        group_frame_observations(std::move(per_ap), positions, slack);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].absolute_start, 1000u);
    EXPECT_EQ(groups[0].observations.size(), 2u);
  }
  {
    std::vector<std::vector<StreamPacket>> per_ap(2);
    per_ap[0].push_back(packet_at(1000));
    per_ap[1].push_back(packet_at(1000 + slack + 1));
    const auto groups =
        group_frame_observations(std::move(per_ap), positions, slack);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].observations.size(), 1u);
    EXPECT_EQ(groups[1].observations.size(), 1u);
  }
}

TEST(Engine, GroupingAnchorsSlackAtGroupStartNotRolling) {
  // 0, slack, 2*slack: the third detection is within slack of the
  // second but not of the group's first — it must start a new group
  // (the window does not roll forward).
  const std::vector<Vec2> positions{{0.0, 0.0}};
  const std::size_t slack = 100;
  std::vector<std::vector<StreamPacket>> per_ap(1);
  per_ap[0].push_back(packet_at(0));
  per_ap[0].push_back(packet_at(slack));
  per_ap[0].push_back(packet_at(2 * slack));
  const auto groups =
      group_frame_observations(std::move(per_ap), positions, slack);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].observations.size(), 2u);
  EXPECT_EQ(groups[1].absolute_start, 2 * slack);
}

TEST(Engine, GroupingInterleavedApOrderIsDeterministic) {
  // AP 2 hears the first transmission before AP 0, and the per-AP vectors
  // are supplied in AP order — grouping must sort by (start, ap index).
  const std::vector<Vec2> positions{{0.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}};
  const std::size_t slack = 50;
  std::vector<std::vector<StreamPacket>> per_ap(3);
  per_ap[0].push_back(packet_at(210));  // 2nd transmission
  per_ap[0].push_back(packet_at(510));  // 3rd
  per_ap[1].push_back(packet_at(200));  // 2nd, earliest copy
  per_ap[2].push_back(packet_at(20));   // 1st
  per_ap[2].push_back(packet_at(200));  // 2nd, same start as AP 1's
  const auto groups =
      group_frame_observations(std::move(per_ap), positions, slack);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].absolute_start, 20u);
  EXPECT_EQ(groups[0].observations.size(), 1u);
  EXPECT_EQ(groups[1].absolute_start, 200u);
  ASSERT_EQ(groups[1].observations.size(), 3u);
  // Same start sample: AP 1 sorts before AP 2; AP 0's later copy last.
  EXPECT_EQ(groups[1].observations[0].ap_position.x, 5.0);
  EXPECT_EQ(groups[1].observations[1].ap_position.x, 10.0);
  EXPECT_EQ(groups[1].observations[2].ap_position.x, 0.0);
  EXPECT_EQ(groups[2].absolute_start, 510u);
}

TEST(Engine, GroupingDecodesDataOnlyAtTheBestObservation) {
  // One transmission demodulated at four APs: each packet leaves
  // demodulate with its header decoded and its DATA samples pending.
  // Grouping decodes the strongest AP's copy and frees the others'.
  Rng rng(5);
  const Floorplan empty;
  const RayTracer tracer;
  const ChannelSimulator sim([] {
    ChannelConfig ch;
    ch.noise_power = 1e-6;
    return ch;
  }());
  const Vec2 client{3.0, 4.0};
  const Frame frame = Frame::data(MacAddress::from_index(1),
                                  MacAddress::from_index(2), Bytes{5, 6, 7}, 11);
  const CVec wave =
      PacketTransmitter(PhyRate::k6Mbps).transmit(frame.serialize());
  const std::vector<Vec2> positions{
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}};
  std::vector<std::vector<StreamPacket>> per_ap(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    AccessPointConfig cfg;
    cfg.position = positions[i];
    const AccessPoint ap(cfg, rng);
    const CMat x = ap.condition(sim.propagate(
        wave, tracer.trace(client, positions[i], empty), ap.placement(), rng));
    const auto dets = ap.detect(x);
    ASSERT_EQ(dets.size(), 1u);
    auto pkt = ap.demodulate(x, dets[0]);
    ASSERT_TRUE(pkt.has_value());
    ASSERT_TRUE(pkt->header.has_value());
    EXPECT_EQ(pkt->data_samples.size(), pkt->header->samples_needed);
    EXPECT_FALSE(pkt->frame.has_value());
    StreamPacket sp;
    sp.absolute_start = dets[0].start;
    sp.packet = std::move(*pkt);
    per_ap[i].push_back(std::move(sp));
  }

  const auto groups =
      group_frame_observations(std::move(per_ap), positions, 1600);
  ASSERT_EQ(groups.size(), 1u);
  const std::vector<ApObservation>& obs = groups[0].observations;
  ASSERT_EQ(obs.size(), 4u);
  const ApObservation& best = Coordinator::best_observation(obs);
  for (const ApObservation& o : obs) {
    EXPECT_EQ(o.packet.frame.has_value(), &o == &best);
    EXPECT_EQ(o.packet.phy.has_value(), &o == &best);
    EXPECT_TRUE(o.packet.data_samples.empty());
    EXPECT_EQ(o.packet.data_samples.capacity(), 0u);
  }
  ASSERT_TRUE(best.packet.frame.has_value());
  EXPECT_EQ(best.packet.frame->addr2, MacAddress::from_index(2));
  EXPECT_EQ(best.packet.frame->sequence, 11);
}

}  // namespace
}  // namespace sa
