#include "sa/phy/convolutional.hpp"

#include <array>
#include <limits>
#include <utility>

#include "sa/common/error.hpp"

namespace sa {

namespace {

// Generators g0 = 133o, g1 = 171o; constraint length 7 (64 states).
constexpr unsigned kG0 = 0133;
constexpr unsigned kG1 = 0171;
constexpr unsigned kStates = 64;

inline std::uint8_t parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

// Rate 3/4 puncture pattern over 3 info bits / 6 coded bits:
// keep A1 B1 A2 -- -- B3 (true = transmit).
constexpr std::array<bool, 6> kPuncture34 = {true, true, true, false, false, true};
// Rate 2/3 pattern over 2 info bits / 4 coded bits: keep A1 B1 A2 --.
constexpr std::array<bool, 4> kPuncture23 = {true, true, true, false};

bool keep_bit(CodeRate rate, std::size_t coded_index) {
  switch (rate) {
    case CodeRate::kRate1_2: return true;
    case CodeRate::kRate2_3: return kPuncture23[coded_index % 4];
    case CodeRate::kRate3_4: return kPuncture34[coded_index % 6];
  }
  return true;
}

std::size_t puncture_period_info_bits(CodeRate rate) {
  switch (rate) {
    case CodeRate::kRate1_2: return 1;
    case CodeRate::kRate2_3: return 2;
    case CodeRate::kRate3_4: return 3;
  }
  return 1;
}

}  // namespace

std::size_t coded_length(std::size_t n_in, CodeRate rate) {
  const std::size_t full = 2 * n_in;
  if (rate == CodeRate::kRate1_2) return full;
  // Punctured rates require the input padded to the puncture period
  // (802.11 guarantees this by construction of the symbol sizes).
  SA_EXPECTS(n_in % puncture_period_info_bits(rate) == 0);
  if (rate == CodeRate::kRate2_3) return full / 4 * 3;
  return full / 6 * 4;
}

Bits convolutional_encode(const Bits& bits, CodeRate rate) {
  unsigned state = 0;  // six most recent input bits
  Bits full;
  full.reserve(2 * bits.size());
  for (std::uint8_t b : bits) {
    const unsigned reg = ((b & 1u) << 6) | state;  // newest bit as MSB
    full.push_back(parity7(reg & kG0));
    full.push_back(parity7(reg & kG1));
    state = (reg >> 1) & 0x3F;
  }
  if (rate == CodeRate::kRate1_2) return full;

  SA_EXPECTS(bits.size() % puncture_period_info_bits(rate) == 0);
  Bits punct;
  punct.reserve(coded_length(bits.size(), rate));
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (keep_bit(rate, i)) punct.push_back(full[i]);
  }
  return punct;
}

Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate) {
  // Depuncture into (bit, known) pairs covering 2*n_out positions.
  std::vector<std::uint8_t> stream(2 * n_out, 0);
  std::vector<bool> known(2 * n_out, false);
  if (rate == CodeRate::kRate1_2) {
    SA_EXPECTS(coded.size() == 2 * n_out);
    for (std::size_t i = 0; i < coded.size(); ++i) {
      stream[i] = coded[i];
      known[i] = true;
    }
  } else {
    SA_EXPECTS(n_out % puncture_period_info_bits(rate) == 0);
    SA_EXPECTS(coded.size() == coded_length(n_out, rate));
    std::size_t src = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (keep_bit(rate, i)) {
        stream[i] = coded[src++];
        known[i] = true;
      }
    }
  }

  // The trellis, indexed by next state: state ns is entered from
  // predecessors 2*(ns & 31) and 2*(ns & 31) + 1 on input bit ns >> 5;
  // kOut[ns][p] is the branch's (out_a << 1) | out_b from predecessor
  // 2*(ns & 31) + p.
  static const auto kOut = [] {
    std::array<std::array<std::uint8_t, 2>, kStates> t{};
    for (unsigned ns = 0; ns < kStates; ++ns) {
      for (unsigned p = 0; p < 2; ++p) {
        const unsigned reg = ((ns >> 5) << 6) | (2 * (ns & 31) + p);
        t[ns][p] = static_cast<std::uint8_t>((parity7(reg & kG0) << 1) |
                                             parity7(reg & kG1));
      }
    }
    return t;
  }();

  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 4;
  std::array<std::array<unsigned, kStates>, 2> metrics{};
  unsigned* metric = metrics[0].data();
  unsigned* next_metric = metrics[1].data();
  metrics[0].fill(kInf);
  metric[0] = 0;  // encoder starts in state 0
  // Flat planes, one kStates-wide row per trellis step: the survivor's
  // input bit and predecessor state for each next state. Unreachable
  // states keep their initial zeros.
  std::vector<std::uint8_t> survivor(n_out * kStates, 0);
  std::vector<std::uint8_t> prev_state(n_out * kStates, 0);

  for (std::size_t t = 0; t < n_out; ++t) {
    const std::uint8_t ra = stream[2 * t];
    const std::uint8_t rb = stream[2 * t + 1];
    const bool ka = known[2 * t];
    const bool kb = known[2 * t + 1];
    // Branch cost by (out_a << 1) | out_b: known bits that disagree.
    std::array<unsigned, 4> cost{};
    for (unsigned o = 0; o < 4; ++o) {
      cost[o] = static_cast<unsigned>(ka && (o >> 1) != ra) +
                static_cast<unsigned>(kb && (o & 1u) != rb);
    }
    std::uint8_t* surv = survivor.data() + t * kStates;
    std::uint8_t* prev = prev_state.data() + t * kStates;
    // Add-compare-select in the order a source-major sweep visits each
    // next state: the lower predecessor first, replaced only by a
    // strictly better metric, so ties keep the lower predecessor.
    for (unsigned ns = 0; ns < kStates; ++ns) {
      const unsigned s0 = 2 * (ns & 31);
      unsigned best = kInf;
      for (unsigned p = 0; p < 2; ++p) {
        const unsigned s = s0 + p;
        if (metric[s] >= kInf) continue;
        const unsigned m = metric[s] + cost[kOut[ns][p]];
        if (m < best) {
          best = m;
          prev[ns] = static_cast<std::uint8_t>(s);
          surv[ns] = static_cast<std::uint8_t>(ns >> 5);
        }
      }
      next_metric[ns] = best;
    }
    std::swap(metric, next_metric);
  }

  // Trace back from the best final state (with 802.11 tail bits the true
  // final state is 0, but tolerate truncation by taking the minimum).
  unsigned best = 0;
  for (unsigned s = 1; s < kStates; ++s) {
    if (metric[s] < metric[best]) best = s;
  }
  Bits out(n_out);
  unsigned s = best;
  for (std::size_t t = n_out; t-- > 0;) {
    out[t] = survivor[t * kStates + s];
    s = prev_state[t * kStates + s];
  }
  return out;
}

}  // namespace sa
