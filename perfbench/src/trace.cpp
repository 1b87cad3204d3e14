#include "trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "harness.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"

namespace perfbench {

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.site.seed = seed;
  w.site.estimator = sa::AoaBackend::kMusic;
  if (name == "office-dense") {
    // The paper's array: 4 APs x 8-antenna octagon, narrowband MUSIC,
    // the default decode -> spoof -> fence chain, one office-mix frame
    // per round. Per-frame DSP dominates.
    w.site.num_aps = 4;
    w.site.antennas = 8;
    w.workers = 2;
    w.frame_pool = 64;
    w.poisson = true;
    w.open_rate = 100.0;
    w.closed_rate = 450.0;
    w.check_rounds = 192;
  } else if (name == "sparse-air") {
    // 8 APs x 4-antenna UCA, fixed-length buffers far below the
    // receiver history, about one buffer in eight carrying a frame.
    // Per-sample scan work dominates.
    w.site.num_aps = 8;
    w.site.antennas = 4;
    w.workers = 2;
    w.frame_pool = 24;
    w.noise_pool = 24;
    w.frame_share = 0.125;
    w.buffer_len = 2048;
    w.poisson = false;
    w.open_rate = 550.0;
    w.closed_rate = 1100.0;
    w.check_rounds = 512;
  } else if (name == "roaming-wideband") {
    // 3 sites x 2 APs x 4 antennas, four SNR-fused subbands, the full
    // acl,spoof,fence,rate chain, walkers with a short dwell so a
    // cross-site handoff follows every few frames. With one worker per
    // site the hot site's share of frames caps throughput; the pool
    // holds enough dwells (~400 site draws) that this share, and so the
    // figures, hardly move from seed to seed.
    w.sites = 3;
    w.site.num_aps = 2;
    w.site.antennas = 4;
    w.site.subbands = 4;
    w.site.band_fusion = sa::BandFusion::kSnr;
    w.site.policies = {sa::PolicyKind::kAcl, sa::PolicyKind::kSpoof,
                       sa::PolicyKind::kFence, sa::PolicyKind::kRateLimit};
    w.workers = 1;
    w.scenario = sa::ScenarioKind::kRoaming;
    w.scenario_rate = 200.0;
    w.roaming_dwell_s = 0.05;
    w.frame_pool = 512;
    w.poisson = true;
    w.open_rate = 125.0;
    w.closed_rate = 620.0;
    w.check_rounds = 192;
  } else {
    return std::nullopt;
  }
  return w;
}

std::size_t spoof_idle_frames(const Workload& w) {
  if (w.sites == 1) return 0;
  sa::ScenarioConfig sc;
  sc.kind = sa::ScenarioKind::kRoaming;
  sc.arrival_rate = w.scenario_rate;
  sc.roaming_dwell_s = w.roaming_dwell_s;
  return static_cast<std::size_t>(sa::roaming_idle_horizon_frames(sc));
}

std::size_t Trace::pool_index(std::uint64_t r) const {
  const std::size_t noise_entries = pool.size() - frame_entries;
  if (noise_entries == 0) return static_cast<std::size_t>(r % frame_entries);
  // Exactly one frame per block of 1/frame_share rounds, at a seeded
  // position, so every seed carries the same share of frames. Block 0's
  // frame is round 0: set-up time ends at its decision.
  const std::uint64_t block = static_cast<std::uint64_t>(1.0 / frame_share);
  const std::uint64_t b = r / block;
  const std::uint64_t salt = splitmix64(seed ^ 0x726f756e64ULL);
  const std::uint64_t slot = b == 0 ? 0 : splitmix64(salt ^ b) % block;
  const std::uint64_t pick = splitmix64(salt ^ ~r);
  return r % block == slot
             ? static_cast<std::size_t>(pick % frame_entries)
             : frame_entries + static_cast<std::size_t>(pick % noise_entries);
}

std::vector<std::uint64_t> Trace::site_rounds(std::uint64_t n) const {
  std::vector<std::uint64_t> out(sites, 0);
  for (std::uint64_t r = 0; r < n; ++r) ++out[round(r).site];
  return out;
}

double Trace::pool_mb() const {
  double bytes = 0.0;
  for (const PoolRound& pr : pool) {
    for (const sa::CMat& c : pr.chunks) {
      bytes += static_cast<double>(c.rows() * c.cols() * sizeof(sa::cd));
    }
  }
  return bytes / (1024.0 * 1024.0);
}

namespace {

/// `c` placed at column `lead` of a `len`-column matrix whose other
/// columns are fresh noise at the channel floor.
sa::CMat pad_with_noise(const sa::CMat& c, std::size_t rows, std::size_t lead,
                        std::size_t len, double noise_power, sa::Rng& rng) {
  sa::CMat out(rows, len);
  for (std::size_t m = 0; m < rows; ++m) {
    sa::cd* row = out.raw() + m * len;
    const sa::CVec head = sa::awgn(lead, noise_power, rng);
    std::copy(head.begin(), head.end(), row);
    if (c.cols() != 0) {
      std::copy(c.raw() + m * c.cols(), c.raw() + (m + 1) * c.cols(),
                row + lead);
    }
    const sa::CVec tail = sa::awgn(len - lead - c.cols(), noise_power, rng);
    std::copy(tail.begin(), tail.end(), row + lead + c.cols());
  }
  return out;
}

}  // namespace

Trace synthesize(const Workload& w) {
  const auto t0 = Clock::now();
  Trace tr;
  tr.sites = w.sites;
  tr.aps_per_site = w.site.num_aps;
  tr.seed = w.site.seed;
  tr.frame_share = w.frame_share;

  // The generator's own copy of every site, with its channel simulation.
  // The system under test is built from the same specs without one, so
  // its AP impairment draws are identical.
  sa::FleetSpec fspec;
  fspec.site = w.site;
  fspec.num_sites = w.sites;
  std::vector<sa::BuiltDeployment> gens;
  gens.reserve(w.sites);
  for (std::size_t s = 0; s < w.sites; ++s) {
    gens.push_back(sa::build_deployment(sa::site_spec(fspec, s), true));
  }
  const double noise_power = gens[0].sim->config().channel.noise_power;
  const std::size_t antennas = gens[0].aps[0]->config().geometry.size();

  sa::ScenarioConfig sc;
  sc.kind = w.scenario;
  sc.arrival_rate = w.scenario_rate;
  sc.duration_s = 1e9;
  sc.roaming_sites = w.sites;
  sc.roaming_dwell_s = w.roaming_dwell_s;
  sa::Rng rng(splitmix64(w.site.seed ^ 0x7472616365ULL));
  sa::ScenarioGenerator gen(gens[0].testbed, sc, rng.fork(),
                            w.site.estimator);
  sa::Rng noise_rng = rng.fork();

  std::uint16_t seq = 0;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < w.frame_pool; ++i) {
    const auto ev = gen.next();
    if (!ev) throw std::runtime_error("scenario ended before the pool filled");
    for (auto& g : gens) g.sim->advance(ev->dt_s);
    const sa::Frame f = sa::Frame::data(sa::MacAddress::from_index(0xFF),
                                        ev->mac, sa::Bytes{1, 2, 3}, seq++);
    const sa::CVec wave =
        sa::PacketTransmitter(sa::PhyRate::k6Mbps).transmit(f.serialize());
    PoolRound pr;
    pr.site = ev->site;
    pr.mac = ev->mac;
    pr.chunks = gens[ev->site].sim->transmit(
        ev->from, wave, ev->pattern ? &*ev->pattern : nullptr);
    for (const sa::CMat& c : pr.chunks) longest = std::max(longest, c.cols());
    tr.pool.push_back(std::move(pr));
  }

  // Aligned rounds. A frame-fitted round leaves a short noise gap after
  // the longest propagation output; a fixed buffer places the frame
  // after a seeded noise lead-in, early enough that its detection is
  // never deferred to the next buffer.
  constexpr std::size_t kGap = 64;
  constexpr std::size_t kMaxLead = 128;
  tr.round_len = w.buffer_len != 0 ? w.buffer_len
                                   : (longest + kGap + 63) / 64 * 64;
  if (longest + (w.buffer_len != 0 ? kMaxLead : 0) > tr.round_len) {
    throw std::runtime_error("frames do not fit the workload's buffers");
  }
  for (PoolRound& pr : tr.pool) {
    const std::size_t lead =
        w.buffer_len != 0
            ? static_cast<std::size_t>(noise_rng.uniform_int(0, kMaxLead - 1))
            : 0;
    for (sa::CMat& c : pr.chunks) {
      c = pad_with_noise(c, antennas, lead, tr.round_len, noise_power,
                         noise_rng);
    }
  }
  tr.frame_entries = tr.pool.size();

  for (std::size_t i = 0; i < w.noise_pool; ++i) {
    PoolRound pr;
    for (std::size_t a = 0; a < w.site.num_aps; ++a) {
      pr.chunks.push_back(pad_with_noise(sa::CMat(), antennas, 0,
                                         tr.round_len, noise_power,
                                         noise_rng));
    }
    tr.pool.push_back(std::move(pr));
  }
  tr.synth_s = elapsed_s(t0, Clock::now());
  return tr;
}

HomeTracker::Step HomeTracker::step(const PoolRound& round) {
  Step out;
  if (!round.mac) return out;
  auto [it, inserted] = homes_.try_emplace(*round.mac, Home{round.site, 1});
  out.generation = it->second.generation;
  if (inserted) {
    out.action = Action::kFirst;
    out.source = round.site;
    return out;
  }
  if (it->second.site == round.site) return out;
  out.action = Action::kMigrate;
  out.source = it->second.site;
  it->second.site = round.site;
  out.generation = ++it->second.generation;
  return out;
}

}  // namespace perfbench
