#include "sa/aoa/estimator.hpp"

#include "sa/aoa/esprit.hpp"
#include "sa/aoa/rootmusic.hpp"
#include "sa/common/error.hpp"
#include "sa/common/geometry.hpp"

namespace sa {

const char* to_string(AoaBackend backend) {
  switch (backend) {
    case AoaBackend::kMusic:
      return "music";
    case AoaBackend::kCapon:
      return "capon";
    case AoaBackend::kBartlett:
      return "bartlett";
    case AoaBackend::kRootMusic:
      return "root-music";
    case AoaBackend::kEsprit:
      return "esprit";
  }
  return "unknown";
}

std::optional<AoaBackend> aoa_backend_from_string(std::string_view name) {
  if (name == "music") return AoaBackend::kMusic;
  if (name == "capon" || name == "mvdr") return AoaBackend::kCapon;
  if (name == "bartlett") return AoaBackend::kBartlett;
  if (name == "root-music" || name == "rootmusic" || name == "root_music") {
    return AoaBackend::kRootMusic;
  }
  if (name == "esprit") return AoaBackend::kEsprit;
  return std::nullopt;
}

const char* aoa_backend_names() {
  return "music, capon (alias: mvdr), bartlett, "
         "root-music (aliases: rootmusic, root_music), esprit";
}

MusicResult AoaEstimator::estimate(const CMat& covariance,
                                   const ArrayGeometry& geom,
                                   double lambda_m) const {
  return estimate(SpectralContext(covariance, geom, lambda_m,
                                  spectral_options()));
}

namespace {

/// ULA element spacing of a context's scan geometry; 0 when not linear —
/// the search-free backends' "degrade to plain MUSIC" signal.
double linear_spacing_or_zero(const ArrayGeometry& geom) {
  if (geom.kind() != ArrayKind::kLinear || geom.size() < 2) return 0.0;
  return distance(geom.positions()[0], geom.positions()[1]);
}

/// The paper's estimator: a thin adapter so interface results are
/// byte-identical to calling MusicEstimator directly.
class MusicBackend : public AoaEstimator {
 public:
  explicit MusicBackend(const AoaEstimatorConfig& cfg) : music_(cfg.music) {}

  MusicResult estimate(const SpectralContext& ctx) const override {
    return music_.estimate(ctx);
  }
  SpectralOptions spectral_options() const override {
    return music_.spectral_options();
  }
  AoaBackend backend() const override { return AoaBackend::kMusic; }

 protected:
  MusicEstimator music_;
};

class CaponBackend : public AoaEstimator {
 public:
  explicit CaponBackend(const AoaEstimatorConfig& cfg)
      : options_({cfg.music.forward_backward, cfg.music.smoothing_subarray}),
        step_deg_(cfg.music.scan_step_deg),
        loading_(cfg.capon_loading) {}

  MusicResult estimate(const SpectralContext& ctx) const override {
    MusicResult out;
    out.spectrum = capon_spectrum_from_inverse(
        ctx.inverse(loading_), ctx.manifold(ctx.geometry(), step_deg_));
    return out;
  }
  SpectralOptions spectral_options() const override { return options_; }
  AoaBackend backend() const override { return AoaBackend::kCapon; }

 private:
  SpectralOptions options_;
  double step_deg_;
  double loading_;
};

class BartlettBackend : public AoaEstimator {
 public:
  explicit BartlettBackend(const AoaEstimatorConfig& cfg)
      : options_({cfg.music.forward_backward, cfg.music.smoothing_subarray}),
        step_deg_(cfg.music.scan_step_deg) {}

  MusicResult estimate(const SpectralContext& ctx) const override {
    MusicResult out;
    out.spectrum = bartlett_spectrum(ctx.covariance(),
                                     ctx.manifold(ctx.geometry(), step_deg_));
    return out;
  }
  SpectralOptions spectral_options() const override { return options_; }
  AoaBackend backend() const override { return AoaBackend::kBartlett; }

 private:
  SpectralOptions options_;
  double step_deg_;
};

/// Grid MUSIC for the spectrum (signatures and tracking keep working),
/// plus the search-free polynomial bearings on linear arrays — both fed
/// from the context's single EVD and cached noise projector. Non-linear
/// geometries have no root-MUSIC formulation; they degrade to plain
/// MUSIC.
class RootMusicBackend : public MusicBackend {
 public:
  using MusicBackend::MusicBackend;

  MusicResult estimate(const SpectralContext& ctx) const override {
    MusicResult out = music_.estimate(ctx);
    const double spacing = linear_spacing_or_zero(ctx.processed_geometry());
    if (spacing > 0.0 && out.num_sources >= 1) {
      for (const auto& src :
           root_music_from_projector(ctx.noise_projector(out.num_sources),
                                     spacing, ctx.lambda_m(),
                                     out.num_sources)) {
        out.source_bearings_deg.push_back(src.bearing_deg);
      }
    }
    return out;
  }
  AoaBackend backend() const override { return AoaBackend::kRootMusic; }
};

/// Grid MUSIC spectrum plus LS-ESPRIT bearings from the context's signal
/// subspace (linear arrays only; same degradation rule as root-MUSIC).
class EspritBackend : public MusicBackend {
 public:
  using MusicBackend::MusicBackend;

  MusicResult estimate(const SpectralContext& ctx) const override {
    MusicResult out = music_.estimate(ctx);
    const double spacing = linear_spacing_or_zero(ctx.processed_geometry());
    if (spacing > 0.0 && out.num_sources >= 1) {
      out.source_bearings_deg = esprit_bearings_from_subspace(
          ctx.eig(), out.num_sources, spacing, ctx.lambda_m());
    }
    return out;
  }
  AoaBackend backend() const override { return AoaBackend::kEsprit; }
};

}  // namespace

std::unique_ptr<AoaEstimator> make_aoa_estimator(
    AoaBackend backend, const AoaEstimatorConfig& config) {
  switch (backend) {
    case AoaBackend::kMusic:
      return std::make_unique<MusicBackend>(config);
    case AoaBackend::kCapon:
      return std::make_unique<CaponBackend>(config);
    case AoaBackend::kBartlett:
      return std::make_unique<BartlettBackend>(config);
    case AoaBackend::kRootMusic:
      return std::make_unique<RootMusicBackend>(config);
    case AoaBackend::kEsprit:
      return std::make_unique<EspritBackend>(config);
  }
  throw InvalidArgument("make_aoa_estimator: unknown backend");
}

}  // namespace sa
