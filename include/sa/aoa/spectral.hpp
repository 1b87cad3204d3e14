// Shared spectral decomposition for one covariance estimate.
//
// Every AoA backend consumes the same per-frame quantities — the
// conditioned covariance, its eigendecomposition (MUSIC, root-MUSIC,
// ESPRIT) or its loaded inverse (Capon, power-weighted bearing
// selection) — but historically each consumer recomputed them privately.
// A SpectralContext owns the covariance of one frame (or one subband of
// one frame) and lazily computes and caches the derived decompositions,
// so a frame pays for one EVD and one inverse no matter how many
// backends and spoof checks look at it. The grid scans read their
// steering vectors from a SteeringManifold the context borrows from its
// owner (an AccessPoint builds one per band at construction) or, when
// none fits, builds once on first use.
//
// A context is built once per (frame, subband) and then read by one
// worker at a time; the lazy caches are not synchronized, so do not
// share one context between threads concurrently.
#pragma once

#include <cstddef>
#include <optional>

#include "sa/aoa/manifold.hpp"
#include "sa/array/geometry.hpp"
#include "sa/linalg/cmat.hpp"
#include "sa/linalg/eig.hpp"

namespace sa {

/// Covariance conditioning applied before the eigendecomposition —
/// mirrors MusicConfig's remedies for coherent multipath.
struct SpectralOptions {
  /// Forward-backward averaging (linear geometries only).
  bool forward_backward = true;
  /// ULA forward spatial smoothing subarray size; 0 disables. Ignored
  /// (with a warning) for non-linear geometries.
  std::size_t smoothing_subarray = 0;
};

/// The geometry a context's processed() matrix corresponds to under
/// `options` — what MUSIC scans: the leading smoothing subarray of a
/// ULA, otherwise `geom` itself.
ArrayGeometry scan_geometry(const ArrayGeometry& geom,
                            const SpectralOptions& options);

class SpectralContext {
 public:
  /// Takes ownership of `covariance` (an as-estimated sample covariance,
  /// square, sized to `geom`). `lambda_m` is the carrier — or subband
  /// centre — wavelength the steering vectors use. `manifold`, when
  /// given, is borrowed and must outlive the context.
  SpectralContext(CMat covariance, ArrayGeometry geom, double lambda_m,
                  SpectralOptions options = {},
                  const SteeringManifold* manifold = nullptr);

  /// The raw covariance as handed in (what Capon and Bartlett consume).
  const CMat& covariance() const { return raw_; }
  const ArrayGeometry& geometry() const { return geom_; }
  double lambda_m() const { return lambda_m_; }
  const SpectralOptions& options() const { return options_; }

  /// MUSIC-style conditioned matrix: spatial smoothing (ULA only), then
  /// forward-backward averaging (linear only). Computed once, in place —
  /// no second full-matrix copy — and cached.
  const CMat& processed() const;
  /// Geometry the processed matrix corresponds to: the leading subarray
  /// after smoothing, otherwise the original geometry.
  const ArrayGeometry& processed_geometry() const;

  /// Eigendecomposition of processed(), computed once and cached. This
  /// is the EVD that MUSIC, root-MUSIC and ESPRIT all share.
  const EigResult& eig() const;

  /// Noise-subspace projector for `num_sources` sources: the sum of the
  /// n - num_sources smallest eigenvectors' outer products. Cached for
  /// the most recent source count (in practice one per frame).
  const CMat& noise_projector(std::size_t num_sources) const;

  /// inverse(diagonal_load(covariance(), loading_eps)) — what Capon and
  /// the power-weighted bearing rule consume. Cached for the most recent
  /// loading. Throws InvalidArgument when the loaded matrix is singular.
  const CMat& inverse(double loading_eps) const;

  /// Steering manifold over `scan_geom` at this context's wavelength and
  /// `step_deg`: the borrowed one when it was built for exactly these,
  /// otherwise one built here on first use and cached (the cached one
  /// is replaced, invalidating earlier references to it, when a later
  /// call asks for a different geometry or step).
  const SteeringManifold& manifold(const ArrayGeometry& scan_geom,
                                   double step_deg) const;

 private:
  void ensure_processed() const;

  CMat raw_;
  ArrayGeometry geom_;
  double lambda_m_ = 0.0;
  SpectralOptions options_;
  const SteeringManifold* borrowed_manifold_ = nullptr;

  mutable bool processed_ready_ = false;
  mutable CMat processed_;
  mutable ArrayGeometry processed_geom_;
  mutable std::optional<EigResult> eig_;
  mutable std::optional<std::size_t> projector_sources_;
  mutable CMat projector_;
  mutable std::optional<double> inverse_eps_;
  mutable CMat inverse_;
  mutable std::optional<SteeringManifold> own_manifold_;
};

}  // namespace sa
