#include "sa/signature/tracker.hpp"

#include "sa/common/error.hpp"

namespace sa {

namespace {

/// True when `observed` fits the accumulators: the same band count and,
/// per band, the same grid size and wrap flag — what blending and
/// match_score demand of two spectra.
bool same_shape(const std::vector<TrackerSnapshot::Band>& bands,
                const SubbandSignature& observed) {
  if (bands.size() != observed.num_bands()) return false;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const Pseudospectrum& spec = observed.band(b).spectrum();
    if (bands[b].values.size() != spec.size() ||
        bands[b].wraps != spec.wraps()) {
      return false;
    }
  }
  return true;
}

}  // namespace

SignatureTracker::SignatureTracker(TrackerConfig config) : config_(config) {
  SA_EXPECTS(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0);
  SA_EXPECTS(config_.match_threshold >= 0.0 && config_.match_threshold <= 1.0);
  SA_EXPECTS(config_.training_packets >= 1);
}

void SignatureTracker::blend_into_reference(const SubbandSignature& observed,
                                            double alpha) {
  ref_cache_.reset();
  auto& bands = state_.bands;
  if (bands.empty()) {
    bands.resize(observed.num_bands());
    for (std::size_t b = 0; b < observed.num_bands(); ++b) {
      const auto& spec = observed.band(b).spectrum();
      bands[b].values = spec.values();
      bands[b].angles_deg = spec.angles_deg();
      bands[b].wraps = spec.wraps();
    }
    return;
  }
  SA_EXPECTS(bands.size() == observed.num_bands());
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const auto& vals = observed.band(b).spectrum().values();
    auto& acc = bands[b].values;
    SA_EXPECTS(vals.size() == acc.size());
    for (std::size_t i = 0; i < vals.size(); ++i) {
      acc[i] = (1.0 - alpha) * acc[i] + alpha * vals[i];
    }
  }
}

TrackerDecision SignatureTracker::observe(const SubbandSignature& observed) {
  SA_EXPECTS(observed.valid());
  ++state_.observations;

  if (!state_.trained) {
    if (!state_.bands.empty() && !same_shape(state_.bands, observed)) {
      // The shape changed mid-training (an AP reconfiguration, or state
      // handed off from a site with another grid): restart the
      // accumulation rather than mixing incompatible spectra.
      state_.bands.clear();
      state_.training_seen = 0;
    }
    // Equal-weight average over the training window.
    ++state_.training_seen;
    blend_into_reference(observed,
                         1.0 / static_cast<double>(state_.training_seen));
    if (state_.training_seen >= config_.training_packets) {
      state_.trained = true;
    }
    return {TrackerVerdict::kTraining, 0.0};
  }

  if (!same_shape(state_.bands, observed)) {
    ++state_.mismatches;
    return {TrackerVerdict::kMismatch, 0.0};
  }
  const double score =
      match_score(observed, materialized_reference(), config_.weights);
  if (score >= config_.match_threshold) {
    blend_into_reference(observed, config_.ewma_alpha);
    return {TrackerVerdict::kMatch, score};
  }
  ++state_.mismatches;
  return {TrackerVerdict::kMismatch, score};
}

TrackerDecision SignatureTracker::observe(const AoaSignature& observed) {
  SA_EXPECTS(observed.valid());
  return observe(SubbandSignature::single(observed));
}

const SubbandSignature& SignatureTracker::materialized_reference() const {
  SA_EXPECTS(!state_.bands.empty());
  if (!ref_cache_) {
    std::vector<AoaSignature> bands;
    bands.reserve(state_.bands.size());
    for (const auto& band : state_.bands) {
      bands.push_back(AoaSignature::from_spectrum(
          Pseudospectrum(band.angles_deg, band.values, band.wraps),
          config_.signature_config));
    }
    ref_cache_ = SubbandSignature(std::move(bands));
  }
  return *ref_cache_;
}

std::optional<SubbandSignature> SignatureTracker::reference_bands() const {
  if (state_.bands.empty()) return std::nullopt;
  return materialized_reference();
}

std::optional<AoaSignature> SignatureTracker::reference() const {
  const auto bands = reference_bands();
  if (!bands) return std::nullopt;
  return bands->fuse(config_.signature_config);
}

void SignatureTracker::restore(const TrackerSnapshot& snap) {
  SA_EXPECTS(!snap.trained || !snap.bands.empty());
  for (const auto& b : snap.bands) {
    SA_EXPECTS(b.angles_deg.size() == b.values.size());
    SA_EXPECTS(b.angles_deg.size() >= 2);
  }
  state_ = snap;
  ref_cache_.reset();
}

void SignatureTracker::reset() {
  state_ = {};
  ref_cache_.reset();
}

}  // namespace sa
