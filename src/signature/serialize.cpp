#include "sa/signature/serialize.hpp"

#include <cmath>

#include "sa/common/error.hpp"

namespace sa {

namespace {

constexpr std::uint32_t kMagic = 0x53414131;   // "SAA1": one band
constexpr std::uint32_t kMagic2 = 0x53414132;  // "SAA2": subband container
constexpr std::uint32_t kMagicT = 0x53415431;  // "SAT1": tracker state
constexpr std::uint32_t kMaxBands = 1024;

/// One band's body: wrap flag, grid size, grid start + step, values —
/// exactly the legacy payload after the magic.
void put_band(ByteStream& out, const AoaSignature& sig) {
  const auto& spec = sig.spectrum();
  put_u32(out, spec.wraps() ? 1u : 0u);
  put_u32(out, static_cast<std::uint32_t>(spec.size()));
  // Uniform grid: store start + step, then the values.
  put_f64(out, spec.angles_deg().front());
  put_f64(out, spec.step_deg());
  for (double v : spec.values()) put_f64(out, v);
}

std::optional<AoaSignature> read_band(ByteReader& r) {
  const auto wraps = r.u32();
  const auto n = r.u32();
  if (!wraps || !n || *n < 2 || *n > 1u << 20) return std::nullopt;
  const auto start = r.f64();
  const auto step = r.f64();
  // NaN/inf must be rejected here, not left to throw inside
  // Pseudospectrum: the parser's contract is nullopt on malformed input.
  if (!start || !step || !std::isfinite(*start) || !std::isfinite(*step) ||
      *step <= 0.0) {
    return std::nullopt;
  }

  std::vector<double> angles(*n), values(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    angles[i] = *start + *step * i;
    const auto v = r.f64();
    if (!v || *v < 0.0 || !std::isfinite(*v)) return std::nullopt;
    values[i] = *v;
  }
  return AoaSignature::from_spectrum(
      Pseudospectrum(std::move(angles), std::move(values), *wraps != 0));
}

}  // namespace

ByteStream serialize_signature(const AoaSignature& sig) {
  SA_EXPECTS(sig.valid());
  ByteStream out;
  put_u32(out, kMagic);
  put_band(out, sig);
  return out;
}

std::optional<AoaSignature> deserialize_signature(const ByteStream& data) {
  ByteReader r(data);
  const auto magic = r.u32();
  if (!magic || *magic != kMagic) return std::nullopt;
  auto band = read_band(r);
  if (!band || !r.done()) return std::nullopt;  // malformed or trailing garbage
  return band;
}

ByteStream serialize_signature(const SubbandSignature& sig) {
  SA_EXPECTS(sig.valid());
  if (sig.num_bands() == 1) return serialize_signature(sig.band(0));
  ByteStream out;
  put_u32(out, kMagic2);
  put_u32(out, static_cast<std::uint32_t>(sig.num_bands()));
  for (const auto& band : sig.bands()) put_band(out, band);
  return out;
}

std::optional<SubbandSignature> deserialize_subband_signature(
    const ByteStream& data) {
  ByteReader r(data);
  const auto magic = r.u32();
  if (!magic) return std::nullopt;
  if (*magic == kMagic) {
    auto band = read_band(r);
    if (!band || !r.done()) return std::nullopt;
    return SubbandSignature::single(std::move(*band));
  }
  if (*magic != kMagic2) return std::nullopt;
  const auto count = r.u32();
  if (!count || *count < 1 || *count > kMaxBands) return std::nullopt;
  std::vector<AoaSignature> bands;
  bands.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto band = read_band(r);
    if (!band) return std::nullopt;
    // All bands must share one grid (the SubbandSignature invariant).
    if (!bands.empty() &&
        (band->spectrum().size() != bands.front().spectrum().size() ||
         band->spectrum().wraps() != bands.front().spectrum().wraps())) {
      return std::nullopt;
    }
    bands.push_back(std::move(*band));
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return SubbandSignature(std::move(bands));
}

ByteStream serialize_tracker_snapshot(const TrackerSnapshot& snap) {
  ByteStream out;
  put_u32(out, kMagicT);
  put_u32(out, snap.trained ? 1u : 0u);  // flags; bit0 = trained
  put_u64(out, snap.training_seen);
  put_u64(out, snap.observations);
  put_u64(out, snap.mismatches);
  put_u32(out, static_cast<std::uint32_t>(snap.bands.size()));
  for (const auto& b : snap.bands) {
    SA_EXPECTS(b.angles_deg.size() == b.values.size());
    put_u32(out, b.wraps ? 1u : 0u);
    put_u32(out, static_cast<std::uint32_t>(b.angles_deg.size()));
    // Unlike put_band, the grid is stored verbatim (every angle, not
    // start+step): the accumulator grid came from repeated addition in
    // the scan loop and must survive the round-trip bit-for-bit.
    for (double a : b.angles_deg) put_f64(out, a);
    for (double v : b.values) put_f64(out, v);
  }
  return out;
}

std::optional<TrackerSnapshot> deserialize_tracker_snapshot(
    const ByteStream& data) {
  ByteReader r(data);
  const auto magic = r.u32();
  if (!magic || *magic != kMagicT) return std::nullopt;
  const auto flags = r.u32();
  if (!flags || (*flags & ~1u) != 0) return std::nullopt;
  const auto training_seen = r.u64();
  const auto observations = r.u64();
  const auto mismatches = r.u64();
  const auto band_count = r.u32();
  if (!training_seen || !observations || !mismatches || !band_count) {
    return std::nullopt;
  }
  if (*band_count > kMaxBands) return std::nullopt;

  TrackerSnapshot snap;
  snap.trained = (*flags & 1u) != 0;
  snap.training_seen = *training_seen;
  snap.observations = *observations;
  snap.mismatches = *mismatches;
  // A trained tracker always has a reference; an untrained one may have
  // zero bands (no observations yet).
  if (snap.trained && *band_count == 0) return std::nullopt;

  snap.bands.reserve(*band_count);
  for (std::uint32_t bi = 0; bi < *band_count; ++bi) {
    const auto wraps = r.u32();
    const auto n = r.u32();
    if (!wraps || !n || *n < 2 || *n > 1u << 20) return std::nullopt;
    TrackerSnapshot::Band band;
    band.wraps = *wraps != 0;
    band.angles_deg.resize(*n);
    band.values.resize(*n);
    for (std::uint32_t i = 0; i < *n; ++i) {
      const auto a = r.f64();
      // restore() hands these straight to Pseudospectrum when the
      // reference materializes, whose contract demands a finite,
      // strictly ascending grid — enforce it here so an accepted
      // snapshot can never throw downstream.
      if (!a || !std::isfinite(*a)) return std::nullopt;
      if (i > 0 && *a <= band.angles_deg[i - 1]) return std::nullopt;
      band.angles_deg[i] = *a;
    }
    for (std::uint32_t i = 0; i < *n; ++i) {
      const auto v = r.f64();
      if (!v || !std::isfinite(*v) || *v < 0.0) return std::nullopt;
      band.values[i] = *v;
    }
    // All bands must share one shape (the SubbandSignature invariant
    // the materialized reference will be built under).
    if (!snap.bands.empty() &&
        (band.angles_deg.size() != snap.bands.front().angles_deg.size() ||
         band.wraps != snap.bands.front().wraps)) {
      return std::nullopt;
    }
    snap.bands.push_back(std::move(band));
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return snap;
}

}  // namespace sa
