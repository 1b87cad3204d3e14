// Signature tracking (paper §2.3.2): "Since Scl changes when the client
// or nearby obstacles move, the AP needs to track and update Scl ...
// using uplink traffic that the clients send to the AP."
//
// The tracker keeps an exponentially weighted reference spectrum per
// client. Each accepted observation nudges the reference; observations
// that fail the match threshold are counted as anomalies and do NOT
// update the reference (otherwise an attacker could walk the signature).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sa/signature/metrics.hpp"
#include "sa/signature/signature.hpp"

namespace sa {

struct TrackerConfig {
  double ewma_alpha = 0.1;        ///< weight of a new accepted observation
  double match_threshold = 0.75;  ///< match_score() acceptance level
  /// Number of initial observations averaged to form the reference
  /// ("initial training stage", §2.3.2).
  std::size_t training_packets = 5;
  MatchWeights weights;
  SignatureConfig signature_config;
};

/// A tracker's full learning state: the RAW per-band accumulators (the
/// non-normalized EWMA spectra, with their exact angle grids), not the
/// materialized reference. SignatureTracker keeps its state in one of
/// these, so snapshot() and restore() are plain copies, and a restored
/// tracker continues the blend arithmetic bit-for-bit. Cross-site
/// handoff ships it as the SAT1 block (sa/signature/serialize.hpp).
struct TrackerSnapshot {
  bool trained = false;
  std::uint64_t training_seen = 0;
  std::uint64_t observations = 0;
  std::uint64_t mismatches = 0;
  /// One raw accumulator per subband, in ascending band order.
  struct Band {
    std::vector<double> angles_deg;
    std::vector<double> values;
    bool wraps = false;
  };
  std::vector<Band> bands;
};

enum class TrackerVerdict {
  kTraining,  ///< still collecting the initial reference
  kMatch,     ///< accepted; reference updated
  kMismatch,  ///< rejected; possible spoof/injection
};

struct TrackerDecision {
  TrackerVerdict verdict = TrackerVerdict::kTraining;
  double score = 0.0;  ///< match_score vs the current reference (0 in training)
};

class SignatureTracker {
 public:
  explicit SignatureTracker(TrackerConfig config = {});

  /// Feed one observed wideband signature; returns the verdict against
  /// the tracked per-band references (subband-wise mean match score). A
  /// shape change — another band count, or a band with another grid
  /// size or wrap flag — after training is an automatic mismatch (an
  /// attacker cannot downgrade a reference to fewer bands, and a tracker
  /// handed off from a site with another grid cannot be scored here);
  /// during training it restarts the accumulation with the new shape.
  TrackerDecision observe(const SubbandSignature& observed);
  /// Single-band compatibility overload.
  TrackerDecision observe(const AoaSignature& observed);

  bool trained() const { return state_.trained; }
  /// Current reference collapsed to one band (fused across subbands);
  /// nullopt before any observation.
  std::optional<AoaSignature> reference() const;
  /// Per-band reference spectra; nullopt before any observation.
  std::optional<SubbandSignature> reference_bands() const;

  std::size_t observations() const { return state_.observations; }
  std::size_t mismatches() const { return state_.mismatches; }

  /// Drop all state and retrain from scratch.
  void reset();

  /// Copy out the raw learning state. restore()ing the result into a
  /// tracker with the same config continues observing bit-for-bit where
  /// this tracker left off.
  TrackerSnapshot snapshot() const { return state_; }
  /// Replace this tracker's state with `snap` (config is kept). The
  /// snapshot's bands must be structurally valid (equal-length finite
  /// grids); deserialize_tracker_snapshot() guarantees that for
  /// untrusted input.
  void restore(const TrackerSnapshot& snap);

  const TrackerConfig& config() const { return config_; }

 private:
  void blend_into_reference(const SubbandSignature& observed, double alpha);
  /// The cached materialized reference, built on demand. Precondition:
  /// at least one observation (state_.bands non-empty).
  const SubbandSignature& materialized_reference() const;

  TrackerConfig config_;
  TrackerSnapshot state_;
  /// Materialized reference signatures, rebuilt only after a blend —
  /// the per-observation hot path otherwise re-extracts K peak sets.
  mutable std::optional<SubbandSignature> ref_cache_;
};

}  // namespace sa
