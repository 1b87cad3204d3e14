#include "sa/aoa/pseudospectrum.hpp"

#include <algorithm>
#include <cmath>

#include "sa/common/angles.hpp"
#include "sa/dsp/units.hpp"

namespace sa {

Pseudospectrum::Pseudospectrum(std::vector<double> angles_deg,
                               std::vector<double> values, bool wraps)
    : angles_(std::move(angles_deg)), values_(std::move(values)), wraps_(wraps) {
  SA_EXPECTS(angles_.size() == values_.size());
  SA_EXPECTS(angles_.size() >= 2);
  for (std::size_t i = 1; i < angles_.size(); ++i) {
    SA_EXPECTS(angles_[i] > angles_[i - 1]);
  }
  for (double v : values_) SA_EXPECTS(v >= 0.0);
}

double Pseudospectrum::step_deg() const { return angles_[1] - angles_[0]; }

std::vector<double> Pseudospectrum::values_db() const {
  const double peak = max_value();
  std::vector<double> out(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out[i] = to_db(peak > 0.0 ? values_[i] / peak : 0.0);
  }
  return out;
}

double Pseudospectrum::max_angle_deg() const {
  const auto it = std::max_element(values_.begin(), values_.end());
  return angles_[static_cast<std::size_t>(it - values_.begin())];
}

double Pseudospectrum::max_value() const {
  return *std::max_element(values_.begin(), values_.end());
}

double Pseudospectrum::value_at(double angle_deg) const {
  const double lo = angles_.front();
  const double step = step_deg();
  double a = angle_deg;
  if (wraps_) {
    const double span = 360.0;
    a = lo + std::fmod(std::fmod(a - lo, span) + span, span);
  } else {
    a = std::clamp(a, angles_.front(), angles_.back());
  }
  const double pos = (a - lo) / step;
  const auto i0 = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(i0);
  const std::size_t i1 = wraps_ ? (i0 + 1) % values_.size()
                                : std::min(i0 + 1, values_.size() - 1);
  if (i0 >= values_.size()) return values_.back();
  return values_[i0] * (1.0 - frac) + values_[i1] * frac;
}

std::vector<SpectrumPeak> Pseudospectrum::find_peaks(
    double min_prominence_db, double min_separation_deg) const {
  const std::size_t n = values_.size();
  const double peak_val = max_value();
  if (peak_val <= 0.0) return {};

  // Every index read below lies in [-n, 2n), so one conditional wrap
  // reaches the circular neighbour; off the ends of a linear scan the
  // value is -1, below any spectrum value.
  const auto m = static_cast<std::ptrdiff_t>(n);
  auto at = [&](std::ptrdiff_t i) -> double {
    if (i < 0) {
      if (!wraps_) return -1.0;
      i += m;
    } else if (i >= m) {
      if (!wraps_) return -1.0;
      i -= m;
    }
    return values_[static_cast<std::size_t>(i)];
  };

  std::vector<SpectrumPeak> peaks;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values_[i];
    const auto si = static_cast<std::ptrdiff_t>(i);
    if (!(v > at(si - 1) && v >= at(si + 1))) continue;

    // Prominence: walk outwards to the nearest higher point on each
    // side; the peak's prominence is its height above the higher of the
    // two deepest valleys crossed.
    auto walk = [&](std::ptrdiff_t dir) -> double {
      double valley = v;
      std::ptrdiff_t j = si;
      for (std::size_t s = 1; s < n; ++s) {
        j += dir;
        const double w = at(j);
        if (w < 0.0) break;  // hit a non-wrapping boundary
        valley = std::min(valley, w);
        if (w > v) return valley;
      }
      return valley;
    };
    const double valley = std::max(walk(-1), walk(+1));
    const double prom_db = to_db(v / std::max(valley, 1e-30));

    if (prom_db < min_prominence_db) continue;
    SpectrumPeak p;
    p.angle_deg = angles_[i];
    p.value = v;
    p.value_db = to_db(v / peak_val);
    p.prominence_db = prom_db;
    peaks.push_back(p);
  }

  // Strongest first, then drop peaks too close to a stronger one.
  std::sort(peaks.begin(), peaks.end(),
            [](const SpectrumPeak& a, const SpectrumPeak& b) {
              return a.value > b.value;
            });
  std::vector<SpectrumPeak> out;
  for (const auto& p : peaks) {
    bool keep = true;
    for (const auto& q : out) {
      const double d = wraps_ ? angular_distance_deg(p.angle_deg, q.angle_deg)
                              : std::abs(p.angle_deg - q.angle_deg);
      if (d < min_separation_deg) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(p);
  }
  return out;
}

double Pseudospectrum::refined_max_angle_deg() const {
  const auto it = std::max_element(values_.begin(), values_.end());
  const auto i = static_cast<std::size_t>(it - values_.begin());
  const auto si = static_cast<std::ptrdiff_t>(i);
  const std::size_t n = values_.size();

  // k is one step off i; a linear scan's ends repeat the maximum.
  const auto m = static_cast<std::ptrdiff_t>(n);
  auto at = [&](std::ptrdiff_t k) -> double {
    if (k < 0) {
      if (!wraps_) return values_[i];
      k += m;
    } else if (k >= m) {
      if (!wraps_) return values_[i];
      k -= m;
    }
    return values_[static_cast<std::size_t>(k)];
  };
  const double y0 = at(si - 1), y1 = at(si), y2 = at(si + 1);
  const double denom = y0 - 2.0 * y1 + y2;
  double offset = 0.0;
  if (std::abs(denom) > 1e-30) {
    offset = 0.5 * (y0 - y2) / denom;
    offset = std::clamp(offset, -1.0, 1.0);
  }
  double angle = angles_[i] + offset * step_deg();
  if (wraps_) angle = wrap_deg360(angle);
  return angle;
}

void Pseudospectrum::normalize() {
  const double peak = max_value();
  if (peak <= 0.0) return;
  for (double& v : values_) v /= peak;
}

}  // namespace sa
