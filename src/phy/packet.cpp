#include "sa/phy/packet.hpp"

#include <cmath>
#include <utility>

#include "sa/common/error.hpp"
#include "sa/phy/interleaver.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/phy/scrambler.hpp"

namespace sa {

namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
constexpr std::size_t kSignalBitCount = 24;
constexpr std::size_t kMaxPsduBytes = 4095;

const RateInfo kRates[] = {
    // modulation, code rate, n_bpsc, n_cbps, n_dbps, RATE bits (R1 = LSB)
    {Modulation::kBpsk, CodeRate::kRate1_2, 1, 48, 24, 0x0B},   // 6
    {Modulation::kBpsk, CodeRate::kRate3_4, 1, 48, 36, 0x0F},   // 9
    {Modulation::kQpsk, CodeRate::kRate1_2, 2, 96, 48, 0x0A},   // 12
    {Modulation::kQpsk, CodeRate::kRate3_4, 2, 96, 72, 0x0E},   // 18
    {Modulation::kQam16, CodeRate::kRate1_2, 4, 192, 96, 0x09}, // 24
    {Modulation::kQam16, CodeRate::kRate3_4, 4, 192, 144, 0x0D},// 36
    {Modulation::kQam64, CodeRate::kRate2_3, 6, 288, 192, 0x08},// 48
    {Modulation::kQam64, CodeRate::kRate3_4, 6, 288, 216, 0x0C},// 54
};

/// DATA OFDM symbols carrying SERVICE + `length` PSDU bytes + tail.
std::size_t data_symbols(const RateInfo& ri, std::size_t length) {
  const std::size_t payload_bits = kServiceBits + 8 * length + kTailBits;
  return (payload_bits + ri.n_dbps - 1) / ri.n_dbps;
}

}  // namespace

const RateInfo& rate_info(PhyRate rate) {
  return kRates[static_cast<std::size_t>(rate)];
}

std::optional<PhyRate> rate_from_signal_bits(std::uint8_t bits) {
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    if (kRates[i].signal_bits == (bits & 0x0F)) {
      return static_cast<PhyRate>(i);
    }
  }
  return std::nullopt;
}

PacketTransmitter::PacketTransmitter(PhyRate rate, std::uint8_t scrambler_seed)
    : rate_(rate), scrambler_seed_(scrambler_seed) {
  SA_EXPECTS((scrambler_seed & 0x7F) != 0);
}

std::size_t PacketTransmitter::num_data_symbols(std::size_t length) const {
  return data_symbols(rate_info(rate_), length);
}

CVec PacketTransmitter::transmit(const Bytes& psdu) const {
  SA_EXPECTS(!psdu.empty() && psdu.size() <= kMaxPsduBytes);
  const RateInfo& ri = rate_info(rate_);

  // ---- SIGNAL field: RATE(4) | reserved(1) | LENGTH(12) | parity | tail.
  Bits signal(kSignalBitCount, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    signal[i] = static_cast<std::uint8_t>((ri.signal_bits >> i) & 1u);
  }
  const std::size_t len = psdu.size();
  for (std::size_t i = 0; i < 12; ++i) {
    signal[5 + i] = static_cast<std::uint8_t>((len >> i) & 1u);
  }
  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= signal[i];
  signal[17] = parity;
  // Bits 18..23 are already zero (tail).

  const Bits signal_coded = convolutional_encode(signal, CodeRate::kRate1_2);
  const Bits signal_inter = interleave(signal_coded, 48, 1);
  const CVec signal_syms = modulate(signal_inter, Modulation::kBpsk);
  const CVec signal_td = ofdm_modulate_symbol(signal_syms, /*symbol_index=*/0);

  // ---- DATA field.
  const std::size_t n_sym = num_data_symbols(len);
  const std::size_t n_data_bits = n_sym * ri.n_dbps;
  Bits data(n_data_bits, 0);
  const Bits psdu_bits = bytes_to_bits(psdu);
  for (std::size_t i = 0; i < psdu_bits.size(); ++i) {
    data[kServiceBits + i] = psdu_bits[i];
  }
  Scrambler scrambler(scrambler_seed_);
  Bits scrambled = scrambler.process(data);
  // Tail bits are zeroed *after* scrambling so the decoder terminates.
  for (std::size_t i = 0; i < kTailBits; ++i) {
    scrambled[kServiceBits + psdu_bits.size() + i] = 0;
  }
  const Bits coded = convolutional_encode(scrambled, ri.code_rate);
  SA_ENSURES(coded.size() == n_sym * ri.n_cbps);

  CVec waveform = short_training_field();
  const CVec ltf = long_training_field();
  waveform.insert(waveform.end(), ltf.begin(), ltf.end());
  waveform.insert(waveform.end(), signal_td.begin(), signal_td.end());

  for (std::size_t s = 0; s < n_sym; ++s) {
    Bits sym_bits(coded.begin() + static_cast<std::ptrdiff_t>(s * ri.n_cbps),
                  coded.begin() + static_cast<std::ptrdiff_t>((s + 1) * ri.n_cbps));
    const Bits inter = interleave(sym_bits, ri.n_cbps, ri.n_bpsc);
    const CVec syms = modulate(inter, ri.modulation);
    const CVec td = ofdm_modulate_symbol(syms, s + 1);
    waveform.insert(waveform.end(), td.begin(), td.end());
  }
  return waveform;
}

std::optional<DecodedPacket> PacketReceiver::decode(const CVec& samples) const {
  const auto header = decode_header(samples);
  if (!header) return std::nullopt;
  return decode_data(samples, *header);
}

std::optional<PhyHeader> PacketReceiver::decode_header(
    const CVec& samples) const {
  // Minimum: preamble + SIGNAL.
  if (samples.size() < kPreambleLen + kSymbolLen) return std::nullopt;

  // Channel estimate from the two LTF periods (after the 32-sample CP).
  const std::size_t ltf1 = kStfLen + 32;
  const CVec p1(samples.begin() + static_cast<std::ptrdiff_t>(ltf1),
                samples.begin() + static_cast<std::ptrdiff_t>(ltf1 + kFftSize));
  const CVec p2(samples.begin() + static_cast<std::ptrdiff_t>(ltf1 + kFftSize),
                samples.begin() + static_cast<std::ptrdiff_t>(ltf1 + 2 * kFftSize));
  CVec channel = estimate_channel_from_ltf(p1, p2);

  // ---- SIGNAL.
  const std::size_t signal_at = kPreambleLen;
  const CVec signal_rx(
      samples.begin() + static_cast<std::ptrdiff_t>(signal_at),
      samples.begin() + static_cast<std::ptrdiff_t>(signal_at + kSymbolLen));
  const CVec signal_eq = ofdm_demodulate_symbol(signal_rx, channel, 0);
  const Bits signal_demapped = demodulate(signal_eq, Modulation::kBpsk);
  const Bits signal_deinter = deinterleave(signal_demapped, 48, 1);
  const Bits signal_bits = viterbi_decode(signal_deinter, kSignalBitCount,
                                          CodeRate::kRate1_2);

  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= signal_bits[i];
  if (parity != signal_bits[17]) return std::nullopt;
  for (std::size_t i = 18; i < kSignalBitCount; ++i) {
    if (signal_bits[i] != 0) return std::nullopt;  // tail must be zero
  }
  std::uint8_t rate_bits = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    rate_bits |= static_cast<std::uint8_t>(signal_bits[i] << i);
  }
  const auto rate = rate_from_signal_bits(rate_bits);
  if (!rate) return std::nullopt;
  std::size_t length = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    length |= static_cast<std::size_t>(signal_bits[5 + i]) << i;
  }
  if (length == 0 || length > kMaxPsduBytes) return std::nullopt;

  const std::size_t need =
      kPreambleLen + kSymbolLen +
      data_symbols(rate_info(*rate), length) * kSymbolLen;
  if (samples.size() < need) return std::nullopt;

  PhyHeader header;
  header.channel = std::move(channel);
  header.rate = *rate;
  header.length = length;
  header.samples_needed = need;
  return header;
}

std::optional<DecodedPacket> PacketReceiver::decode_data(
    const CVec& samples, const PhyHeader& header) const {
  SA_EXPECTS(samples.size() >= header.samples_needed);
  const RateInfo& ri = rate_info(header.rate);
  const std::size_t length = header.length;
  const CVec& channel = header.channel;
  const std::size_t n_sym = data_symbols(ri, length);

  // ---- DATA symbols.
  Bits coded;
  coded.reserve(n_sym * ri.n_cbps);
  double evm_acc = 0.0;
  std::size_t evm_n = 0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const std::size_t at = kPreambleLen + kSymbolLen * (1 + s);
    const CVec rx(samples.begin() + static_cast<std::ptrdiff_t>(at),
                  samples.begin() + static_cast<std::ptrdiff_t>(at + kSymbolLen));
    const CVec eq = ofdm_demodulate_symbol(rx, channel, s + 1);
    const Bits demapped = demodulate(eq, ri.modulation);
    // EVM against the sliced constellation points.
    const CVec ideal = modulate(demapped, ri.modulation);
    for (std::size_t i = 0; i < eq.size(); ++i) {
      evm_acc += std::norm(eq[i] - ideal[i]);
      ++evm_n;
    }
    const Bits deinter = deinterleave(demapped, ri.n_cbps, ri.n_bpsc);
    coded.insert(coded.end(), deinter.begin(), deinter.end());
  }

  const std::size_t n_scrambled = n_sym * ri.n_dbps;
  const Bits scrambled = viterbi_decode(coded, n_scrambled, ri.code_rate);

  // Recover the scrambler seed from the SERVICE field: its first 7 bits
  // are transmitted as zeros, so the received values are the raw PRBS
  // output o1..o7, and the LFSR state after 7 shifts is o1..o7 with o1 in
  // the MSB.
  std::uint8_t state = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    state |= static_cast<std::uint8_t>((scrambled[i] & 1u) << (6 - i));
  }
  if (state == 0) return std::nullopt;  // impossible for a valid packet
  Scrambler descrambler(state);
  Bits descrambled(scrambled.size(), 0);
  for (std::size_t i = 7; i < scrambled.size(); ++i) {
    descrambled[i] =
        static_cast<std::uint8_t>((scrambled[i] ^ descrambler.next_bit()) & 1u);
  }

  Bits psdu_bits(descrambled.begin() + kServiceBits,
                 descrambled.begin() + static_cast<std::ptrdiff_t>(
                                           kServiceBits + 8 * length));
  DecodedPacket out;
  out.psdu = bits_to_bytes(psdu_bits);
  out.rate = header.rate;
  out.length = length;
  out.evm_rms = evm_n > 0 ? std::sqrt(evm_acc / static_cast<double>(evm_n)) : 0.0;
  out.samples_consumed = header.samples_needed;
  return out;
}

}  // namespace sa
