// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the simulator (noise, fading, oscillator
// phases, client traffic) draws from an sa::Rng seeded explicitly, so a
// whole experiment is reproducible from a single seed. Child generators
// (`fork`) decorrelate subsystems without sharing state.
#pragma once

#include <complex>
#include <cstdint>
#include <random>

namespace sa {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eca9e1e5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal (or scaled/shifted) draw. A unit normal is drawn
  /// and scaled — libstdc++'s own arithmetic, so the stream is the same
  /// as a normal_distribution(mean, stddev) draw — because the standard
  /// forbids constructing that distribution with stddev 0, which a zero
  /// noise power or a zero gain sigma asks for.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  /// This is the standard model for thermal noise in I/Q space.
  std::complex<double> complex_normal(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {normal(0.0, s), normal(0.0, s)};
  }

  /// Uniform phase in [0, 2*pi) as a unit-magnitude complex number.
  std::complex<double> random_phasor() {
    const double phi = uniform(0.0, 2.0 * 3.141592653589793238462643383279502884);
    return {std::cos(phi), std::sin(phi)};
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derive an independent child generator; decorrelates subsystems while
  /// keeping the whole simulation a pure function of the root seed.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sa
