// Full PHY packet assembly and decode: preamble + SIGNAL + DATA, i.e. an
// 802.11a/g PPDU at 20 MHz. The transmitter produces baseband I/Q ready
// for the channel simulator; the receiver decodes samples located by the
// Schmidl-Cox detector back into a PSDU (the MAC frame bytes), in two
// steps: the header (LTF channel estimate + SIGNAL field, which fixes the
// PPDU's span) and the DATA symbols.
#pragma once

#include <optional>

#include "sa/linalg/cvec.hpp"
#include "sa/phy/bits.hpp"
#include "sa/phy/convolutional.hpp"
#include "sa/phy/modulation.hpp"

namespace sa {

/// The 802.11a rate set (Mb/s at 20 MHz).
enum class PhyRate {
  k6Mbps,   ///< BPSK  1/2
  k9Mbps,   ///< BPSK  3/4
  k12Mbps,  ///< QPSK  1/2
  k18Mbps,  ///< QPSK  3/4
  k24Mbps,  ///< 16QAM 1/2
  k36Mbps,  ///< 16QAM 3/4
  k48Mbps,  ///< 64QAM 2/3
  k54Mbps,  ///< 64QAM 3/4
};

struct RateInfo {
  Modulation modulation;
  CodeRate code_rate;
  std::size_t n_bpsc;   ///< coded bits per subcarrier
  std::size_t n_cbps;   ///< coded bits per OFDM symbol
  std::size_t n_dbps;   ///< data bits per OFDM symbol
  std::uint8_t signal_bits;  ///< 4-bit RATE field value
};

const RateInfo& rate_info(PhyRate rate);
/// Inverse of RateInfo::signal_bits; nullopt for reserved encodings.
std::optional<PhyRate> rate_from_signal_bits(std::uint8_t bits);

/// Transmit-side PPDU construction.
class PacketTransmitter {
 public:
  /// `scrambler_seed` is the 7-bit initial scrambler state (nonzero).
  explicit PacketTransmitter(PhyRate rate = PhyRate::k6Mbps,
                             std::uint8_t scrambler_seed = 0x5D);

  /// Build the complete baseband waveform for one PSDU (1..4095 bytes):
  /// STF + LTF + SIGNAL symbol + DATA symbols.
  CVec transmit(const Bytes& psdu) const;

  /// Number of DATA OFDM symbols a PSDU of `length` bytes occupies.
  std::size_t num_data_symbols(std::size_t length) const;

  PhyRate rate() const { return rate_; }

 private:
  PhyRate rate_;
  std::uint8_t scrambler_seed_;
};

/// What the preamble and SIGNAL field fix about a PPDU before any DATA
/// symbol is read.
struct PhyHeader {
  CVec channel;  ///< per-subcarrier channel estimate from the two LTFs
  PhyRate rate = PhyRate::k6Mbps;
  std::size_t length = 0;          ///< PSDU length from SIGNAL
  std::size_t samples_needed = 0;  ///< preamble + SIGNAL + DATA symbols
};

struct DecodedPacket {
  Bytes psdu;
  PhyRate rate = PhyRate::k6Mbps;
  std::size_t length = 0;        ///< PSDU length from SIGNAL
  double evm_rms = 0.0;          ///< RMS error vector magnitude over DATA
  std::size_t samples_consumed = 0;  ///< PhyHeader::samples_needed
};

/// Receive-side decode. Samples must begin at the packet's first STF
/// sample (as reported by SchmidlCoxDetector); the caller is expected to
/// have corrected CFO beforehand (see PacketDetection::cfo_hz).
class PacketReceiver {
 public:
  /// Decode a PPDU: decode_header, then decode_data. nullopt when either
  /// fails. FCS validation happens at the MAC layer.
  std::optional<DecodedPacket> decode(const CVec& samples) const;

  /// The LTF channel estimate and the SIGNAL field. nullopt when the
  /// buffer is shorter than preamble + SIGNAL, the SIGNAL field fails
  /// its parity, tail, rate or length check, or the buffer ends before
  /// the span the SIGNAL field announces.
  std::optional<PhyHeader> decode_header(const CVec& samples) const;

  /// The DATA symbols of a PPDU whose header decoded: equalization,
  /// EVM, Viterbi, descrambling. `samples` is the buffer the header came
  /// from, or its first `header.samples_needed` samples. nullopt when
  /// the scrambler state recovered from the SERVICE bits is zero.
  std::optional<DecodedPacket> decode_data(const CVec& samples,
                                           const PhyHeader& header) const;
};

}  // namespace sa
