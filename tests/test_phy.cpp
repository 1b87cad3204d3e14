// Unit tests for sa_phy: bits, scrambler, convolutional code, interleaver,
// modulation, OFDM symbols, Schmidl-Cox detection, full packet round trips.
#include <gtest/gtest.h>

#include <cmath>

#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/dsp/units.hpp"
#include "sa/phy/bits.hpp"
#include "sa/phy/convolutional.hpp"
#include "sa/phy/detector.hpp"
#include "sa/phy/incremental_detector.hpp"
#include "sa/phy/interleaver.hpp"
#include "sa/phy/modulation.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/phy/packet.hpp"
#include "sa/phy/scrambler.hpp"

namespace sa {
namespace {

Bytes random_bytes(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

// ------------------------------------------------------------------ bits

TEST(Bits, ByteBitRoundTrip) {
  const Bytes bytes{0x00, 0xFF, 0xA5, 0x3C};
  const Bits bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 32u);
  // LSB-first: 0xA5 = 1010 0101 -> bits 1,0,1,0,0,1,0,1.
  EXPECT_EQ(bits[16], 1);
  EXPECT_EQ(bits[17], 0);
  EXPECT_EQ(bits[18], 1);
  EXPECT_EQ(bits[23], 1);
  EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(Bits, BitsToBytesRequiresMultipleOf8) {
  EXPECT_THROW(bits_to_bytes(Bits(7, 0)), InvalidArgument);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance({0, 1, 1, 0}, {0, 1, 1, 0}), 0u);
  EXPECT_EQ(hamming_distance({0, 1, 1, 0}, {1, 0, 1, 0}), 2u);
  EXPECT_THROW(hamming_distance({0}, {0, 1}), InvalidArgument);
}

// ------------------------------------------------------------- scrambler

TEST(Scrambler, SelfInverse) {
  Rng rng(1);
  Bits data(200);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  Scrambler tx(0x5D), rx(0x5D);
  const Bits scrambled = tx.process(data);
  const Bits back = rx.process(scrambled);
  EXPECT_EQ(back, data);
  EXPECT_NE(scrambled, data);  // it must actually scramble
}

TEST(Scrambler, KnownPrbsPeriod) {
  // Maximal-length LFSR with 7 bits: period 127.
  Scrambler s(0x7F);
  Bits first(127);
  for (auto& b : first) b = s.next_bit();
  Bits second(127);
  for (auto& b : second) b = s.next_bit();
  EXPECT_EQ(first, second);
  // Within one period the sequence is balanced: 64 ones, 63 zeros.
  std::size_t ones = 0;
  for (auto b : first) ones += b;
  EXPECT_EQ(ones, 64u);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0x00), InvalidArgument);
  EXPECT_THROW(Scrambler(0x80), InvalidArgument);  // 0x80 & 0x7F == 0
}

// ---------------------------------------------------------- convolutional

TEST(Convolutional, EncodeDoublesLength) {
  const Bits in(24, 1);
  const Bits out = convolutional_encode(in);
  EXPECT_EQ(out.size(), 48u);
}

TEST(Convolutional, CleanDecodeRoundTrip) {
  Rng rng(2);
  for (int rep = 0; rep < 10; ++rep) {
    Bits data(96);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    // Tail-terminate like 802.11.
    for (std::size_t i = data.size() - 6; i < data.size(); ++i) data[i] = 0;
    const Bits coded = convolutional_encode(data);
    const Bits decoded = viterbi_decode(coded, data.size());
    EXPECT_EQ(decoded, data);
  }
}

TEST(Convolutional, CorrectsScatteredErrors) {
  Rng rng(3);
  Bits data(240, 0);
  for (std::size_t i = 0; i < data.size() - 6; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  }
  Bits coded = convolutional_encode(data);
  // Flip well-separated bits (beyond free distance apart).
  for (std::size_t pos = 10; pos + 40 < coded.size(); pos += 40) {
    coded[pos] ^= 1u;
  }
  const Bits decoded = viterbi_decode(coded, data.size());
  EXPECT_EQ(decoded, data);
}

TEST(Convolutional, PuncturedRates) {
  Rng rng(4);
  for (CodeRate rate : {CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    Bits data(216, 0);
    for (std::size_t i = 0; i < data.size() - 6; ++i) {
      data[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    }
    const Bits coded = convolutional_encode(data, rate);
    EXPECT_EQ(coded.size(), coded_length(data.size(), rate));
    const Bits decoded = viterbi_decode(coded, data.size(), rate);
    EXPECT_EQ(decoded, data);
  }
}

TEST(Convolutional, CodedLengthValues) {
  EXPECT_EQ(coded_length(24, CodeRate::kRate1_2), 48u);
  EXPECT_EQ(coded_length(36, CodeRate::kRate3_4), 48u);
  EXPECT_EQ(coded_length(192, CodeRate::kRate2_3), 288u);
}

// ------------------------------------------------------------ interleaver

TEST(Interleaver, RoundTripAllRates) {
  Rng rng(5);
  const struct {
    std::size_t n_cbps, n_bpsc;
  } cases[] = {{48, 1}, {96, 2}, {192, 4}, {288, 6}};
  for (const auto& c : cases) {
    Bits bits(c.n_cbps);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    const Bits inter = interleave(bits, c.n_cbps, c.n_bpsc);
    EXPECT_EQ(deinterleave(inter, c.n_cbps, c.n_bpsc), bits);
    EXPECT_NE(inter, bits);  // permutation is nontrivial
  }
}

TEST(Interleaver, IsPermutation) {
  // Interleaving a one-hot vector must keep exactly one bit set.
  for (std::size_t k = 0; k < 48; k += 7) {
    Bits bits(48, 0);
    bits[k] = 1;
    const Bits inter = interleave(bits, 48, 1);
    std::size_t ones = 0;
    for (auto b : inter) ones += b;
    EXPECT_EQ(ones, 1u);
  }
}

TEST(Interleaver, SpreadsAdjacentBits) {
  // Adjacent coded bits must land at least a few subcarriers apart.
  Bits a(192, 0), b(192, 0);
  a[0] = 1;
  b[1] = 1;
  const Bits ia = interleave(a, 192, 4);
  const Bits ib = interleave(b, 192, 4);
  std::size_t pa = 0, pb = 0;
  for (std::size_t i = 0; i < 192; ++i) {
    if (ia[i]) pa = i;
    if (ib[i]) pb = i;
  }
  EXPECT_GT((pa > pb ? pa - pb : pb - pa), 4u);
}

// ------------------------------------------------------------- modulation

class ModulationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationRoundTrip, CleanRoundTrip) {
  const Modulation m = GetParam();
  Rng rng(6);
  const std::size_t bps = bits_per_symbol(m);
  Bits bits(bps * 100);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const CVec syms = modulate(bits, m);
  EXPECT_EQ(syms.size(), 100u);
  EXPECT_EQ(demodulate(syms, m), bits);
}

TEST_P(ModulationRoundTrip, UnitAveragePower) {
  const Modulation m = GetParam();
  Rng rng(7);
  const std::size_t bps = bits_per_symbol(m);
  Bits bits(bps * 6000);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const CVec syms = modulate(bits, m);
  EXPECT_NEAR(mean_power(syms), 1.0, 0.05);
}

TEST_P(ModulationRoundTrip, SurvivesSmallNoise) {
  const Modulation m = GetParam();
  Rng rng(8);
  const std::size_t bps = bits_per_symbol(m);
  Bits bits(bps * 200);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  CVec syms = modulate(bits, m);
  // Perturb by less than half the minimum distance: zero errors expected.
  const double margin = min_distance(m) * 0.4;
  for (auto& s : syms) {
    s += cd{margin * (rng.uniform() - 0.5), margin * (rng.uniform() - 0.5)};
  }
  EXPECT_EQ(demodulate(syms, m), bits);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ModulationRoundTrip,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

// ------------------------------------------------------------------ ofdm

TEST(Ofdm, CarrierPlan) {
  EXPECT_EQ(data_carriers().size(), 48u);
  for (int k : data_carriers()) {
    EXPECT_NE(k, 0);
    EXPECT_LE(std::abs(k), 26);
    for (int p : pilot_carriers()) EXPECT_NE(k, p);
  }
  EXPECT_EQ(carrier_to_bin(1), 1u);
  EXPECT_EQ(carrier_to_bin(-1), 63u);
  EXPECT_EQ(carrier_to_bin(-26), 38u);
}

TEST(Ofdm, StfIsPeriodic16) {
  const CVec stf = short_training_field();
  ASSERT_EQ(stf.size(), kStfLen);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0, 1e-12);
  }
}

TEST(Ofdm, LtfHasTwoIdenticalPeriods) {
  const CVec ltf = long_training_field();
  ASSERT_EQ(ltf.size(), kLtfLen);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0, 1e-12);
  }
  // CP is the tail of the period.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(ltf[i] - ltf[96 + 32 + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, SymbolRoundTripIdealChannel) {
  Rng rng(9);
  Bits bits(96);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const CVec data = modulate(bits, Modulation::kQpsk);
  const CVec td = ofdm_modulate_symbol(data, 3);
  ASSERT_EQ(td.size(), kSymbolLen);
  // Ideal channel: all-ones estimate on active bins.
  CVec channel(kFftSize, cd{0.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    if (k != 0) channel[carrier_to_bin(k)] = cd{1.0, 0.0};
  }
  const CVec eq = ofdm_demodulate_symbol(td, channel, 3);
  EXPECT_EQ(demodulate(eq, Modulation::kQpsk), bits);
}

TEST(Ofdm, CyclicPrefixIsTail) {
  Rng rng(10);
  Bits bits(48);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const CVec td = ofdm_modulate_symbol(modulate(bits, Modulation::kBpsk), 0);
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(td[i] - td[kFftSize + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, ChannelEstimateRecoversFlatGain) {
  const CVec ltf = long_training_field();
  const cd gain{0.5, -0.8};
  CVec p1(64), p2(64);
  for (std::size_t i = 0; i < 64; ++i) {
    p1[i] = ltf[32 + i] * gain;
    p2[i] = ltf[96 + i] * gain;
  }
  // The estimate absorbs the transmit-side time scale: h = scale * gain.
  const CVec h = estimate_channel_from_ltf(p1, p2);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(h[carrier_to_bin(k)] - gain * kOfdmTimeScale), 0.0,
                1e-9);
  }
}

TEST(Ofdm, TransmitWaveformUnitPower) {
  // The normalization constant must give ~unit mean TX power so the
  // channel's path-loss arithmetic is meaningful.
  Rng rng(99);
  const Bytes psdu = [&] {
    Bytes b(200);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return b;
  }();
  const PacketTransmitter tx(PhyRate::k12Mbps);
  const CVec wave = tx.transmit(psdu);
  EXPECT_NEAR(mean_power(wave), 1.0, 0.15);
  EXPECT_NEAR(mean_power(short_training_field()), 1.0, 1e-9);
  // LTF: 52 unit carriers -> exactly unit power per period.
  EXPECT_NEAR(mean_power(ltf_period()), 1.0, 1e-9);
}

TEST(Ofdm, PilotPolarityCycles) {
  EXPECT_EQ(pilot_polarity(0), 1.0);
  EXPECT_EQ(pilot_polarity(127), pilot_polarity(0));
  EXPECT_EQ(pilot_polarity(130), pilot_polarity(3));
}

// -------------------------------------------------------------- detector

CVec build_burst(const Bytes& psdu, PhyRate rate, std::size_t lead_noise,
                 double snr_db, Rng& rng) {
  const PacketTransmitter tx(rate);
  CVec wave = tx.transmit(psdu);
  CVec burst = awgn(lead_noise, mean_power(wave) / from_db(snr_db), rng);
  burst.insert(burst.end(), wave.begin(), wave.end());
  const CVec tail = awgn(400, mean_power(wave) / from_db(snr_db), rng);
  burst.insert(burst.end(), tail.begin(), tail.end());
  return burst;
}

TEST(Detector, FindsPacketStartExactly) {
  Rng rng(11);
  const Bytes psdu = random_bytes(64, rng);
  CVec burst = build_burst(psdu, PhyRate::k6Mbps, 1000, 20.0, rng);
  const SchmidlCoxDetector det;
  const auto hits = det.detect(burst);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].start, 1000u);
  EXPECT_GT(hits[0].metric, 0.8);
  EXPECT_GT(hits[0].fine_peak, 0.8);
}

TEST(Detector, EstimatesCfo) {
  Rng rng(12);
  const Bytes psdu = random_bytes(40, rng);
  const PacketTransmitter tx(PhyRate::k6Mbps);
  CVec wave = tx.transmit(psdu);
  const double true_cfo = 43e3;  // ~18 ppm at 2.4 GHz
  apply_cfo(wave, true_cfo, 20e6);
  CVec burst = awgn(600, mean_power(wave) / from_db(25.0), rng);
  burst.insert(burst.end(), wave.begin(), wave.end());
  const SchmidlCoxDetector det;
  const auto hit = det.detect_first(burst);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->cfo_hz, true_cfo, 2e3);
}

TEST(Detector, NoFalseAlarmOnNoise) {
  Rng rng(13);
  const CVec noise = awgn(20000, 1.0, rng);
  const SchmidlCoxDetector det;
  EXPECT_TRUE(det.detect(noise).empty());
}

TEST(Detector, FindsMultiplePackets) {
  Rng rng(14);
  const Bytes psdu = random_bytes(32, rng);
  const PacketTransmitter tx(PhyRate::k12Mbps);
  const CVec wave = tx.transmit(psdu);
  const double npow = mean_power(wave) / from_db(20.0);
  CVec burst = awgn(500, npow, rng);
  std::vector<std::size_t> starts;
  for (int i = 0; i < 3; ++i) {
    starts.push_back(burst.size());
    burst.insert(burst.end(), wave.begin(), wave.end());
    const CVec gap = awgn(700, npow, rng);
    burst.insert(burst.end(), gap.begin(), gap.end());
  }
  const SchmidlCoxDetector det;
  const auto hits = det.detect(burst);
  ASSERT_EQ(hits.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].start, starts[i]);
  }
}

TEST(Detector, LowSnrStillDetects) {
  Rng rng(15);
  const Bytes psdu = random_bytes(64, rng);
  CVec burst = build_burst(psdu, PhyRate::k6Mbps, 800, 5.0, rng);
  const SchmidlCoxDetector det;
  const auto hit = det.detect_first(burst);
  ASSERT_TRUE(hit.has_value());
  // Timing within a couple of samples at 5 dB.
  EXPECT_NEAR(static_cast<double>(hit->start), 800.0, 2.0);
}

// ---------------------------------------------------------------- packet

TEST(Packet, RateTable) {
  EXPECT_EQ(rate_info(PhyRate::k6Mbps).n_dbps, 24u);
  EXPECT_EQ(rate_info(PhyRate::k54Mbps).n_dbps, 216u);
  EXPECT_EQ(rate_from_signal_bits(0x0B), PhyRate::k6Mbps);
  EXPECT_EQ(rate_from_signal_bits(0x0C), PhyRate::k54Mbps);
  EXPECT_FALSE(rate_from_signal_bits(0x00).has_value());
}

class PacketRoundTrip : public ::testing::TestWithParam<PhyRate> {};

TEST_P(PacketRoundTrip, CleanChannel) {
  Rng rng(16 + static_cast<int>(GetParam()));
  const Bytes psdu = random_bytes(100, rng);
  const PacketTransmitter tx(GetParam());
  const CVec wave = tx.transmit(psdu);
  const PacketReceiver receiver;
  const auto decoded = receiver.decode(wave);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->psdu, psdu);
  EXPECT_EQ(decoded->rate, GetParam());
  EXPECT_EQ(decoded->length, psdu.size());
  EXPECT_LT(decoded->evm_rms, 1e-6);
}

TEST_P(PacketRoundTrip, ModerateNoise) {
  Rng rng(24 + static_cast<int>(GetParam()));
  const Bytes psdu = random_bytes(60, rng);
  const PacketTransmitter tx(GetParam());
  CVec wave = tx.transmit(psdu);
  add_awgn_snr(wave, 30.0, rng);
  const PacketReceiver receiver;
  const auto decoded = receiver.decode(wave);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(AllRates, PacketRoundTrip,
                         ::testing::Values(PhyRate::k6Mbps, PhyRate::k9Mbps,
                                           PhyRate::k12Mbps, PhyRate::k18Mbps,
                                           PhyRate::k24Mbps, PhyRate::k36Mbps,
                                           PhyRate::k48Mbps, PhyRate::k54Mbps));

TEST(Packet, RobustRateAtLowSnr) {
  Rng rng(40);
  const Bytes psdu = random_bytes(60, rng);
  const PacketTransmitter tx(PhyRate::k6Mbps);
  CVec wave = tx.transmit(psdu);
  add_awgn_snr(wave, 12.0, rng);
  const PacketReceiver receiver;
  const auto decoded = receiver.decode(wave);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->psdu, psdu);
  EXPECT_GT(decoded->evm_rms, 0.01);  // noise should show up in EVM
}

TEST(Packet, FlatFadingChannelGainIsEqualized) {
  Rng rng(41);
  const Bytes psdu = random_bytes(80, rng);
  const PacketTransmitter tx(PhyRate::k24Mbps);
  CVec wave = tx.transmit(psdu);
  // Complex flat channel gain + mild noise.
  const cd gain = cd{0.3, 0.7};
  for (auto& s : wave) s *= gain;
  add_awgn_snr(wave, 28.0, rng);
  const PacketReceiver receiver;
  const auto decoded = receiver.decode(wave);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->psdu, psdu);
}

TEST(Packet, TruncatedBufferRejected) {
  Rng rng(42);
  const Bytes psdu = random_bytes(200, rng);
  const PacketTransmitter tx(PhyRate::k6Mbps);
  const CVec wave = tx.transmit(psdu);
  const CVec cut(wave.begin(), wave.begin() + static_cast<std::ptrdiff_t>(wave.size() / 2));
  const PacketReceiver receiver;
  EXPECT_FALSE(receiver.decode(cut).has_value());
}

TEST(Packet, GarbageRejected) {
  Rng rng(43);
  const CVec junk = awgn(4000, 1.0, rng);
  const PacketReceiver receiver;
  EXPECT_FALSE(receiver.decode(junk).has_value());
}

TEST(Packet, NumDataSymbolsMatchesWaveform) {
  const PacketTransmitter tx(PhyRate::k12Mbps);
  for (std::size_t len : {1u, 13u, 100u, 1000u}) {
    Rng rng(44);
    const Bytes psdu = random_bytes(len, rng);
    const CVec wave = tx.transmit(psdu);
    const std::size_t expect_len =
        kPreambleLen + kSymbolLen * (1 + tx.num_data_symbols(len));
    EXPECT_EQ(wave.size(), expect_len);
  }
}

TEST(Packet, DifferentScramblerSeedsSamePayload) {
  Rng rng(45);
  const Bytes psdu = random_bytes(50, rng);
  const PacketTransmitter tx1(PhyRate::k6Mbps, 0x5D);
  const PacketTransmitter tx2(PhyRate::k6Mbps, 0x33);
  const CVec w1 = tx1.transmit(psdu);
  const CVec w2 = tx2.transmit(psdu);
  // Different waveforms...
  double diff = 0.0;
  for (std::size_t i = kPreambleLen + kSymbolLen; i < w1.size(); ++i) {
    diff += std::abs(w1[i] - w2[i]);
  }
  EXPECT_GT(diff, 1.0);
  // ...same decoded payload.
  const PacketReceiver receiver;
  EXPECT_EQ(receiver.decode(w1)->psdu, psdu);
  EXPECT_EQ(receiver.decode(w2)->psdu, psdu);
}

TEST(Packet, RejectsEmptyAndOversizedPsdu) {
  const PacketTransmitter tx(PhyRate::k6Mbps);
  EXPECT_THROW(tx.transmit({}), InvalidArgument);
  EXPECT_THROW(tx.transmit(Bytes(5000, 0)), InvalidArgument);
}

// End-to-end: detect with Schmidl-Cox, correct CFO, decode.
TEST(Packet, DetectThenDecodeWithCfo) {
  Rng rng(46);
  const Bytes psdu = random_bytes(120, rng);
  const PacketTransmitter tx(PhyRate::k18Mbps);
  CVec wave = tx.transmit(psdu);
  apply_cfo(wave, -27e3, 20e6, 1.2);
  CVec burst = awgn(900, mean_power(wave) / from_db(22.0), rng);
  burst.insert(burst.end(), wave.begin(), wave.end());
  const CVec tail = awgn(200, mean_power(wave) / from_db(22.0), rng);
  burst.insert(burst.end(), tail.begin(), tail.end());

  const SchmidlCoxDetector det;
  const auto hit = det.detect_first(burst);
  ASSERT_TRUE(hit.has_value());
  CVec aligned(burst.begin() + static_cast<std::ptrdiff_t>(hit->start), burst.end());
  apply_cfo(aligned, -hit->cfo_hz, 20e6);
  const PacketReceiver receiver;
  const auto decoded = receiver.decode(aligned);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->psdu, psdu);
}

// ------------------------------------------- incremental detection

/// A stream that exercises every decision branch: noise, three real
/// packets, and a lag-16-periodic interference burst (a Schmidl-Cox
/// plateau with no LTF behind it, taking the fine-threshold skip).
CVec build_mixed_stream(Rng& rng) {
  const PacketTransmitter tx(PhyRate::k6Mbps);
  const double npow = 1e-2;
  auto add_noise = [&](CVec& s, std::size_t n) {
    const CVec w = awgn(n, npow, rng);
    s.insert(s.end(), w.begin(), w.end());
  };
  auto add_packet = [&](CVec& s, std::size_t psdu_len) {
    CVec wave = tx.transmit(random_bytes(psdu_len, rng));
    for (cd& v : wave) v *= 3.0;  // ~30 dB over the noise floor
    s.insert(s.end(), wave.begin(), wave.end());
  };
  CVec s;
  add_noise(s, 700);
  add_packet(s, 48);
  add_noise(s, 900);
  // Interference: perfectly lag-16 periodic, so the coarse metric
  // plateaus near 1 with no LTF to confirm.
  for (std::size_t t = 0; t < 320; ++t) {
    const double ph = kTwoPi * static_cast<double>(t % 16) / 16.0;
    s.push_back(cd{0.4 * std::cos(ph), 0.4 * std::sin(ph)});
  }
  add_noise(s, 600);
  add_packet(s, 120);
  add_noise(s, 1400);
  add_packet(s, 24);
  add_noise(s, 500);
  return s;
}

TEST(IncrementalDetector, BitIdenticalToFullDetectorAcrossWindows) {
  // Drive the incremental detector through the streaming receiver's
  // window schedule — append a chunk, scan, trim to the history bound —
  // and hold every scan against SchmidlCoxDetector::detect run fresh
  // over the identical window at the same absolute origin. Every field
  // of every detection must be bit-identical (EXPECT_EQ on doubles),
  // across chunk sizes including 1-sample, prime, and
  // larger-than-history chunks.
  const std::size_t history = 2500;
  for (std::uint64_t seed : {21u, 22u}) {
    for (std::size_t chunk : {1u, 97u, 800u, 4096u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " chunk " << chunk);
      Rng rng(seed);
      const CVec stream = build_mixed_stream(rng);
      // 1-sample chunks run a fresh full detection per sample; keep that
      // case affordable with a shorter stream.
      const std::size_t total =
          chunk == 1 ? std::min<std::size_t>(stream.size(), 1600)
                     : stream.size();

      const SchmidlCoxDetector full;
      IncrementalScDetector inc(full.config());
      std::size_t base = 0, len = 0;
      while (base + len < total) {
        const std::size_t add = std::min(chunk, total - base - len);
        len += add;
        const auto got = inc.scan(stream.data() + base, len, base);
        const CVec window(stream.begin() + static_cast<std::ptrdiff_t>(base),
                          stream.begin() +
                              static_cast<std::ptrdiff_t>(base + len));
        const auto want = full.detect(window, base);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE(i);
          EXPECT_EQ(got[i].start, want[i].start);
          EXPECT_EQ(got[i].metric, want[i].metric);
          EXPECT_EQ(got[i].cfo_hz, want[i].cfo_hz);
          EXPECT_EQ(got[i].fine_peak, want[i].fine_peak);
        }
        if (len > history) {
          base += len - history;
          len = history;
        }
      }
      if (chunk <= 800 && total == stream.size()) {
        // The memo must actually be doing the work: packets that stay in
        // the history window across many scans re-use their fine search
        // instead of re-running it.
        EXPECT_GT(inc.fine_cache_hits(), inc.fine_searches_run());
      }
    }
  }
}

TEST(IncrementalDetector, ScanComputesOnlyNewCoarsePositions) {
  // The office-dense receiver shape: history 6000, 1472-sample chunks.
  // Each scan computes the coarse terms of the positions its chunk added
  // plus, when the trim moved the origin, the at most kScAnchor - 1 head
  // positions before the window's first anchor — never the whole window.
  // Checked by count, not by timing.
  const std::size_t history = 6000;
  const std::size_t chunk = 1472;
  Rng rng(23);
  CVec stream;
  for (int rep = 0; rep < 3; ++rep) {
    const CVec part = build_mixed_stream(rng);
    stream.insert(stream.end(), part.begin(), part.end());
  }
  const SchmidlCoxDetector full;
  IncrementalScDetector inc(full.config());
  std::size_t base = 0, len = 0, warm_scans = 0, head_scans = 0;
  while (base + len + chunk <= stream.size()) {
    len += chunk;
    const std::size_t before = inc.coarse_positions_computed();
    const auto got = inc.scan(stream.data() + base, len, base);
    const std::size_t computed = inc.coarse_positions_computed() - before;
    if (base > 0) {  // warmed up: the window has been trimmed
      SCOPED_TRACE(testing::Message() << "origin " << base);
      ++warm_scans;
      EXPECT_GE(computed, chunk);
      EXPECT_LE(computed, chunk + kScAnchor - 1);
      if (computed > chunk) ++head_scans;
    }
    const CVec window(stream.begin() + static_cast<std::ptrdiff_t>(base),
                      stream.begin() + static_cast<std::ptrdiff_t>(base + len));
    const auto want = full.detect(window, base);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].metric, want[i].metric);
      EXPECT_EQ(got[i].cfo_hz, want[i].cfo_hz);
      EXPECT_EQ(got[i].fine_peak, want[i].fine_peak);
    }
    if (len > history) {
      base += len - history;
      len = history;
    }
  }
  EXPECT_GE(warm_scans, 10u);
  EXPECT_GT(head_scans, 0u);  // the head recompute was exercised
}

TEST(IncrementalDetector, EmptyAndShortWindows) {
  IncrementalScDetector inc{DetectorConfig{}};
  Rng rng(5);
  const CVec noise = awgn(600, 1.0, rng);
  // Below the detector's minimum window: no detections, like detect().
  EXPECT_TRUE(inc.scan(noise.data(), kPreambleLen + 100, 0).empty());
  EXPECT_TRUE(inc.scan(noise.data(), noise.size(), 0).empty());
  inc.reset();
  EXPECT_EQ(inc.fine_cache_size(), 0u);
}

}  // namespace
}  // namespace sa
