#include "serial.hpp"

#include <memory>
#include <stdexcept>

#include "sa/aoa/covariance.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/fleet/wire.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/phy/packet.hpp"

namespace perfbench {
namespace {

sa::EngineConfig with_idle(sa::EngineConfig c, std::size_t idle_frames) {
  c.coordinator.spoof_idle_frames = idle_frames;
  return c;
}

/// One site's pipeline as a session builds it (receivers, MAC-sharded
/// spoof trackers, one policy chain), driven from one thread.
struct SerialSite {
  SerialSite(const sa::DeploymentSpec& spec, std::size_t idle_frames)
      : dep(sa::build_deployment(spec, false)),
        config(with_idle(dep.engine, idle_frames)),
        spoof(config.coordinator.tracker, config.num_shards,
              config.coordinator.max_tracked_macs,
              config.coordinator.spoof_idle_frames),
        coordinator(config.coordinator) {
    for (sa::AccessPoint* ap : dep.ap_ptrs) {
      positions.push_back(ap->config().position);
      rx.push_back(
          std::make_unique<sa::StreamingReceiver>(*ap, config.streaming));
    }
  }

  sa::BuiltDeployment dep;
  sa::EngineConfig config;
  sa::ShardedSpoofDetector spoof;
  sa::Coordinator coordinator;
  std::vector<std::unique_ptr<sa::StreamingReceiver>> rx;
  std::vector<sa::Vec2> positions;
  std::size_t next_sequence = 0;  ///< decisions emitted so far
};

/// A demodulated candidate whose hidden stages are replayed as kernels.
struct KernelJob {
  const sa::AccessPoint* ap = nullptr;
  std::shared_ptr<const sa::CMat> conditioned;
  sa::PacketDetection detection;
};

struct Stage {
  Tracer* tracer = nullptr;
  SerialCounts* counts = nullptr;
  sa::AccessPoint::FrameScratch* scratch = nullptr;
  std::vector<KernelJob>* kernels = nullptr;  ///< traced runs only
};

/// One round at one site — EngineSession::process_ap_job per AP, then
/// the sequencer's grouping and process_decide_job per frame.
void process_round(SerialSite& site, const std::vector<sa::CMat>* chunks,
                   bool final_pass, std::uint64_t round, const Stage& st,
                   std::vector<sa::EngineDecision>& out) {
  Tracer* tr = st.tracer;
  const std::size_t n_aps = site.rx.size();
  std::vector<std::vector<sa::StreamingReceiver::StreamPacket>> per_ap(n_aps);
  for (std::size_t i = 0; i < n_aps; ++i) {
    sa::StreamingReceiver& rx = *site.rx[i];
    const sa::AccessPoint& ap = *site.dep.ap_ptrs[i];
    const sa::CMat* chunk = chunks != nullptr ? &(*chunks)[i] : nullptr;
    sa::StreamingReceiver::Scan scan;
    {
      ScopedSpan s(tr, "streaming.scan", "streaming", round);
      scan = rx.scan(chunk);
    }
    if (chunk != nullptr) st.counts->samples_scanned += chunk->cols();
    const std::size_t watermark = rx.emit_watermark();
    std::vector<std::optional<sa::ReceivedPacket>> processed(
        scan.candidates.size());
    for (std::size_t j = 0; j < scan.candidates.size(); ++j) {
      const auto& cand = scan.candidates[j];
      if (cand.absolute_start < scan.prev_seen &&
          cand.absolute_start < watermark) {
        continue;  // an earlier commit already emitted it
      }
      std::optional<sa::AccessPoint::FramePrep> prep;
      {
        ScopedSpan s(tr, "aoa.prepare", "aoa", round);
        prep = ap.prepare(*scan.conditioned, cand.detection, st.scratch);
      }
      ++st.counts->demodulations;
      if (st.kernels != nullptr) {
        st.kernels->push_back({&ap, scan.conditioned, cand.detection});
      }
      if (!prep) continue;
      st.counts->bands += prep->bands.size();
      for (const sa::SpectralContext& band : prep->bands) {
        // Decompose first, so the estimate that follows excludes it.
        ScopedSpan s(tr, "aoa.evd", "aoa", round);
        (void)band.eig();
      }
      std::vector<sa::MusicResult> results;
      results.reserve(prep->bands.size());
      for (std::size_t b = 0; b < prep->bands.size(); ++b) {
        ScopedSpan s(tr, "aoa.spectrum", "aoa", round);
        results.push_back(ap.estimate_band(*prep, b));
      }
      ScopedSpan s(tr, "aoa.assemble", "aoa", round);
      processed[j] = ap.assemble(std::move(*prep), std::move(results));
    }
    {
      ScopedSpan s(tr, "streaming.commit", "streaming", round);
      per_ap[i] = rx.commit(scan, std::move(processed), final_pass);
    }
    st.counts->packets_emitted += per_ap[i].size();
  }

  std::vector<sa::FrameGroup> groups;
  {
    ScopedSpan s(tr, "policy.group", "policy", round);
    groups = sa::group_frame_observations(std::move(per_ap), site.positions,
                                          site.config.group_slack_samples);
  }
  for (sa::FrameGroup& g : groups) {
    sa::EngineDecision d;
    d.sequence = site.next_sequence++;
    d.absolute_start = g.absolute_start;
    const sa::ApObservation& best =
        sa::Coordinator::best_observation(g.observations);
    std::optional<sa::SpoofObservation> so;
    if (site.coordinator.wants_spoof() && best.packet.frame) {
      ScopedSpan s(tr, "policy.spoof_observe", "policy", round);
      so = site.spoof.observe(best.packet.frame->addr2, best.packet.subband);
    }
    {
      ScopedSpan s(tr, "policy.decide", "policy", round);
      d.decision =
          site.coordinator.process_prejudged(g.observations, so, d.sequence);
    }
    ++st.counts->frames;
    out.push_back(std::move(d));
  }
}

/// Replay the stages hidden inside scan and prepare as kernel spans.
void replay_kernels(const SerialSite& site,
                    const std::vector<sa::CMat>* chunks, std::uint64_t round,
                    const Stage& st, const sa::PacketReceiver& phy) {
  Tracer* tr = st.tracer;
  if (chunks != nullptr) {
    for (std::size_t i = 0; i < chunks->size(); ++i) {
      sa::CMat copy = (*chunks)[i];
      {
        ScopedSpan s(tr, "array.condition", "array", round, true);
        site.dep.ap_ptrs[i]->condition_inplace(copy);
      }
      st.counts->cols_conditioned += copy.cols();
    }
  }
  for (const KernelJob& job : *st.kernels) {
    const sa::CMat& x = *job.conditioned;
    const std::size_t start = job.detection.start;
    // AccessPoint::prepare's decode input: reference-antenna row from
    // the detection onward, CFO corrected.
    sa::CVec aligned(x.raw() + start, x.raw() + x.cols());
    sa::apply_cfo(aligned, -job.detection.cfo_hz,
                  job.ap->config().sample_rate_hz);
    std::optional<sa::DecodedPacket> decoded;
    {
      ScopedSpan s(tr, "phy.decode", "phy", round, true);
      decoded = phy.decode(aligned);
    }
    ++st.counts->decode_calls;
    if (decoded) ++st.counts->decode_ok;
    const std::size_t span = decoded ? decoded->samples_consumed
                                     : sa::kPreambleLen + sa::kSymbolLen;
    const std::size_t end = std::min(start + span, x.cols());
    if (end > start + sa::kPreambleLen / 2) {
      ScopedSpan s(tr, "aoa.covariance", "aoa", round, true);
      const sa::CMat r = sa::sample_covariance_cols(x, start, end);
      (void)r;
    }
  }
  st.kernels->clear();
}

/// Carry `mac`'s state from `source` to `dest` as FleetCoordinator does
/// through EngineSession's export/import/forget hooks, over the real
/// FleetWire encoding.
void migrate(SerialSite& source, SerialSite& dest, const sa::MacAddress& mac,
             const HomeTracker::Step& step, std::uint32_t dest_site) {
  sa::FleetClientState msg;
  msg.mac = mac;
  msg.generation = step.generation;
  msg.source_site = step.source;
  msg.dest_site = dest_site;
  msg.state.tracker = source.spoof.export_tracker(mac);
  sa::PolicyChain& from = source.coordinator.mutable_chain();
  for (std::size_t i = 0; i < from.size(); ++i) {
    sa::SecurityPolicy& p = from.policy_mutable(i);
    if (auto* rate = dynamic_cast<sa::RateLimitPolicy*>(&p)) {
      rate->advance_to(source.next_sequence);
      msg.state.rate_in_window = rate->export_residue(mac);
    } else if (auto* acl = dynamic_cast<sa::AclPolicy*>(&p)) {
      msg.state.acl_allowed = acl->acl().is_allowed(mac);
    }
  }
  const auto got = sa::decode_client_state(sa::encode_client_state(msg));
  if (!got) throw std::runtime_error("FleetWire round trip failed");
  const sa::ClientHandoffState& state = got->state;
  if (state.tracker) dest.spoof.import_tracker(mac, *state.tracker);
  sa::PolicyChain& to = dest.coordinator.mutable_chain();
  for (std::size_t i = 0; i < to.size(); ++i) {
    sa::SecurityPolicy& p = to.policy_mutable(i);
    if (auto* acl = dynamic_cast<sa::AclPolicy*>(&p)) {
      if (state.acl_allowed) {
        if (*state.acl_allowed) {
          acl->mutable_acl().allow(mac);
        } else {
          acl->mutable_acl().revoke(mac);
        }
      }
    } else if (auto* rate = dynamic_cast<sa::RateLimitPolicy*>(&p)) {
      if (state.rate_in_window) rate->import_residue(mac, *state.rate_in_window);
    }
  }
  source.spoof.forget(mac);
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (auto* rate = dynamic_cast<sa::RateLimitPolicy*>(&from.policy_mutable(i))) {
      rate->forget(mac);
    }
  }
}

}  // namespace

SerialResult run_serial(const Workload& w, const Trace& tr,
                        std::uint64_t rounds, std::uint64_t min_rounds,
                        double seconds, Tracer* tracer) {
  SerialResult res;
  sa::FleetSpec fspec;
  fspec.site = w.site;
  fspec.num_sites = w.sites;
  const std::size_t idle = spoof_idle_frames(w);
  std::vector<std::unique_ptr<SerialSite>> sites;
  for (std::size_t s = 0; s < w.sites; ++s) {
    sites.push_back(std::make_unique<SerialSite>(sa::site_spec(fspec, s), idle));
  }

  const std::vector<std::uint64_t> check = tr.site_rounds(w.check_rounds);
  std::vector<SiteDigest> digests(w.sites);
  std::vector<std::vector<std::uint8_t>> decided(w.sites);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> frame_rounds;
  HomeTracker homes;
  sa::AccessPoint::FrameScratch scratch;
  sa::PacketReceiver phy;
  std::vector<KernelJob> kernels;
  std::vector<sa::EngineDecision> out;
  Stage st{tracer, &res.counts, &scratch, tracer ? &kernels : nullptr};

  const auto absorb = [&](std::uint32_t s) {
    for (const sa::EngineDecision& d : out) {
      const std::uint64_t k = round_of(d.absolute_start, tr.round_len);
      if (k < decided[s].size()) decided[s][k] = 1;
      if (k < check[s]) digests[s].add(d);
    }
    res.decisions += out.size();
    out.clear();
  };

  const auto t0 = Clock::now();
  std::uint64_t r = 0;
  for (;; ++r) {
    if (rounds != 0 ? r >= rounds
                    : r >= min_rounds && elapsed_s(t0, Clock::now()) >= seconds) {
      break;
    }
    const PoolRound& pr = tr.round(r);
    {
      ScopedSpan root(tracer, "serial.round", "replay", r);
      if (w.sites > 1) {
        const HomeTracker::Step step = homes.step(pr);
        if (step.action == HomeTracker::Action::kMigrate) {
          ScopedSpan s(tracer, "fleet.migrate", "fleet", r);
          migrate(*sites[step.source], *sites[pr.site], *pr.mac, step,
                  pr.site);
          ++res.counts.migrations;
        }
      }
      if (pr.mac) frame_rounds.emplace_back(pr.site, decided[pr.site].size());
      decided[pr.site].push_back(0);
      process_round(*sites[pr.site], &pr.chunks, false, r, st, out);
      absorb(pr.site);
    }
    if (tracer != nullptr) replay_kernels(*sites[pr.site], &pr.chunks, r, st, phy);
  }
  for (std::uint32_t s = 0; s < w.sites; ++s) {
    {
      ScopedSpan root(tracer, "serial.flush", "replay", r);
      process_round(*sites[s], nullptr, true, r, st, out);
      absorb(s);
    }
    if (tracer != nullptr) replay_kernels(*sites[s], nullptr, r, st, phy);
  }
  res.wall_s = elapsed_s(t0, Clock::now());
  res.rounds = r;
  res.digest = combine(digests);
  for (const auto& [s, k] : frame_rounds) {
    if (!decided[s][k]) ++res.missing;
  }
  std::size_t frames = 0, accepted = 0;
  for (const auto& site : sites) {
    res.tracked_macs += site->spoof.stats().tracked_macs;
    const sa::PolicyChain& chain = site->coordinator.chain();
    frames += chain.frames();
    accepted += chain.accepted();
    for (const auto& ps : chain.policy_stats()) {
      res.drops[std::string(ps.name)] += ps.dropped;
    }
  }
  res.drop_frac = frames == 0 ? 0.0
                              : static_cast<double>(frames - accepted) /
                                    static_cast<double>(frames);
  return res;
}

}  // namespace perfbench
