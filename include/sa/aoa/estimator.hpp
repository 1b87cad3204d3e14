// Pluggable AoA estimation: one interface over the spectral estimators so
// the receive pipeline (AccessPoint, and the EngineSession above it) can
// swap backends without touching the per-packet plumbing.
//
// Every backend consumes a shared SpectralContext — the per-frame (or
// per-subband) covariance plus its lazily cached eigendecomposition and
// loaded inverse — and produces a MusicResult whose Pseudospectrum drives
// the downstream signature/tracking machinery:
//   * kMusic      — the paper's estimator (grid-scan MUSIC), byte-identical
//                   to calling MusicEstimator directly;
//   * kCapon      — MVDR beamformer spectrum (classic baseline);
//   * kBartlett   — conventional beamformer spectrum;
//   * kRootMusic  — grid MUSIC spectrum plus the search-free polynomial
//                   bearings in MusicResult::source_bearings_deg (linear
//                   arrays only; other geometries degrade to plain MUSIC);
//   * kEsprit     — grid MUSIC spectrum plus LS-ESPRIT rotational-
//                   invariance bearings (linear arrays only, same
//                   degradation rule), sharing the context's one EVD.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "sa/aoa/estimators.hpp"

namespace sa {

enum class AoaBackend { kMusic, kCapon, kBartlett, kRootMusic, kEsprit };

/// Stable lower-case names ("music", "capon", "bartlett", "root-music",
/// "esprit") for CLI flags and reports.
const char* to_string(AoaBackend backend);
/// Parses the stable names plus the aliases "mvdr" (capon) and
/// "rootmusic"/"root_music" (root-music).
std::optional<AoaBackend> aoa_backend_from_string(std::string_view name);
/// Human-readable list of every accepted name, for CLI error messages.
const char* aoa_backend_names();

struct AoaEstimatorConfig {
  /// Scan/grid/source-count settings; also drives the root-MUSIC and
  /// ESPRIT backends' source count and forward-backward averaging.
  MusicConfig music;
  /// Diagonal loading of the Capon backend.
  double capon_loading = 1e-3;
};

/// Interface every AoA backend implements. Implementations are immutable
/// after construction and safe to call concurrently from multiple threads
/// (each call must use its own SpectralContext — the context's caches are
/// not synchronized).
class AoaEstimator {
 public:
  virtual ~AoaEstimator() = default;

  /// Spectral estimate over a shared per-frame context. Eigenstructure
  /// backends read ctx.eig()/ctx.noise_projector(); Capon reads
  /// ctx.inverse() — whatever the context already computed for another
  /// consumer is reused, not recomputed.
  virtual MusicResult estimate(const SpectralContext& ctx) const = 0;

  /// Compatibility overload: builds a one-shot context with
  /// spectral_options() and delegates. Byte-identical to the pre-context
  /// per-backend pipelines (MUSIC output is bit-exact).
  MusicResult estimate(const CMat& covariance, const ArrayGeometry& geom,
                       double lambda_m) const;

  /// The covariance conditioning this backend expects a context to carry
  /// (callers building a shared context pass these options).
  virtual SpectralOptions spectral_options() const = 0;

  virtual AoaBackend backend() const = 0;
  const char* name() const { return to_string(backend()); }
};

/// Factory for the built-in backends.
std::unique_ptr<AoaEstimator> make_aoa_estimator(
    AoaBackend backend, const AoaEstimatorConfig& config = {});

}  // namespace sa
