// Radix-2 FFT/IFFT for the OFDM PHY (64-point symbols), the wideband
// subband split and spectral utilities. Sizes must be powers of two,
// which covers every transform in this codebase; SA_EXPECTS enforces it.
//
// Everything a transform needs that depends only on its size — the
// bit-reversal permutation and each butterfly stage's twiddles — is
// built once per size on first use (thread-safe) and reused. The
// twiddles come from the same w *= wlen recurrence the butterflies ran
// inline before, so every output is bit-identical to recomputing them.
#pragma once

#include "sa/linalg/cvec.hpp"

namespace sa {

/// True when n is a nonzero power of two.
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// In-place forward FFT (no normalization), length must be a power of 2.
void fft_inplace(CVec& x);

/// In-place inverse FFT with 1/N normalization.
void ifft_inplace(CVec& x);

/// Forward length-n FFTs of `count` consecutive windows of `in` (window
/// t is in[t*n .. t*n + n)), in one pass: bin j of window t is written
/// to out[j][t]. Bit-identical to fft_inplace on a copy of each window.
void fft_windows(const cd* in, std::size_t n, std::size_t count,
                 cd* const* out);

/// Out-of-place conveniences.
CVec fft(CVec x);
CVec ifft(CVec x);

/// Swap halves so DC is centred (for spectra/plots).
CVec fftshift(const CVec& x);

/// Power spectral density estimate |FFT|^2 / N over one block.
std::vector<double> power_spectrum(const CVec& x);

}  // namespace sa
