// Tests for the SACP capture format and CaptureWriter/CaptureReader:
// encode/decode round-trips, the writer's end-record bookkeeping and
// close semantics, validate()'s structural walk, and — most importantly
// — the error paths: truncated files, corrupted framing, data after the
// end record, and deterministic mutation. A capture parser fed hostile
// bytes must reject them with an error string, never crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sa/capture/format.hpp"
#include "sa/capture/reader.hpp"
#include "sa/capture/writer.hpp"
#include "sa/common/error.hpp"
#include "sa/secure/policy.hpp"

namespace sa {
namespace {

/// Unique-ish temp path per test; gtest runs tests serially per binary.
std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "sacp_" + name + ".sacp";
}

CaptureHeader small_header() {
  CaptureHeader h;
  h.num_aps = 2;
  h.seed = 42;
  h.metadata = {{"sa.deployment", "figure4-office"}, {"note", "unit test"}};
  return h;
}

CMat small_chunk(std::size_t rows, std::size_t cols, double salt) {
  CMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = cd(salt + static_cast<double>(r),
                   static_cast<double>(c) - salt);
    }
  }
  return m;
}

FrameDecision sample_decision() {
  FrameDecision d;
  d.accepted = false;
  d.policy = "fence";
  d.detail = "outside boundary";
  d.source = MacAddress::from_index(7);
  LocalizationResult loc;
  loc.position = Vec2{1.5, -2.25};
  loc.residual_deg = 3.5;
  loc.aps_used = 3;
  d.location = loc;
  d.spoof = SpoofVerdict::kLegitimate;
  d.spoof_score = 0.125;
  d.trace = {{"spoof", false, "match"}, {"fence", true, "outside boundary"}};
  return d;
}

/// Write a small but complete capture (2 chunks, 1 decision, 1 drain)
/// and return its bytes.
ByteStream write_sample_capture(const std::string& path) {
  CaptureWriter writer(path, small_header());
  writer.record_chunk(0, 0, 0, small_chunk(2, 5, 0.5));
  writer.record_chunk(1, 0, 0, small_chunk(2, 5, 1.5));
  writer.record_decision(0, 123, sample_decision());
  writer.record_drain();
  writer.close();
  auto reader = CaptureReader::from_file(path);
  EXPECT_TRUE(reader.has_value());
  return reader->bytes();
}

TEST(CaptureFormat, HeaderRoundTrip) {
  const ByteStream bytes = encode_header(small_header());
  ByteReader r(bytes.data(), bytes.size());
  const auto decoded = decode_header(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, kSacpVersion);
  EXPECT_EQ(decoded->num_aps, 2u);
  EXPECT_EQ(decoded->seed, 42u);
  ASSERT_EQ(decoded->metadata.size(), 2u);
  EXPECT_EQ(decoded->meta("sa.deployment"),
            std::optional<std::string>("figure4-office"));
  EXPECT_EQ(decoded->meta("note"), std::optional<std::string>("unit test"));
  EXPECT_EQ(decoded->meta("absent"), std::nullopt);
}

TEST(CaptureFormat, ChunkRoundTripIsBitExact) {
  const CMat chunk = small_chunk(3, 7, 0.25);
  const ByteStream payload = encode_chunk(1, 4, 999, chunk);
  const auto decoded = decode_chunk(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ap, 1u);
  EXPECT_EQ(decoded->round, 4u);
  EXPECT_EQ(decoded->base, 999u);
  ASSERT_EQ(decoded->samples.rows(), chunk.rows());
  ASSERT_EQ(decoded->samples.cols(), chunk.cols());
  for (std::size_t r = 0; r < chunk.rows(); ++r) {
    for (std::size_t c = 0; c < chunk.cols(); ++c) {
      EXPECT_EQ(decoded->samples(r, c), chunk(r, c));
    }
  }
  // Re-encoding the decoded chunk must reproduce the payload bytes —
  // this is what makes per-AP chunk tracks byte-comparable.
  EXPECT_EQ(encode_chunk(decoded->ap, decoded->round, decoded->base,
                         decoded->samples),
            payload);
}

TEST(CaptureFormat, DecisionRoundTrip) {
  const FrameDecision d = sample_decision();
  const ByteStream payload = encode_decision(17, 4242, d);
  const auto decoded = decode_decision(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sequence, 17u);
  EXPECT_EQ(decoded->absolute_start, 4242u);
  EXPECT_FALSE(decoded->accepted);
  EXPECT_EQ(decoded->policy, "fence");
  EXPECT_EQ(decoded->detail, "outside boundary");
  ASSERT_TRUE(decoded->source.has_value());
  EXPECT_EQ(*decoded->source, MacAddress::from_index(7).octets());
  ASSERT_TRUE(decoded->location.has_value());
  EXPECT_EQ(decoded->location->x, 1.5);
  EXPECT_EQ(decoded->location->y, -2.25);
  EXPECT_EQ(decoded->location->residual_deg, 3.5);
  EXPECT_EQ(decoded->location->aps_used, 3u);
  EXPECT_EQ(decoded->spoof_verdict,
            static_cast<std::uint8_t>(SpoofVerdict::kLegitimate));
  EXPECT_EQ(decoded->spoof_score, 0.125);
  ASSERT_EQ(decoded->trace.size(), 2u);
  EXPECT_EQ(decoded->trace[0].policy, "spoof");
  EXPECT_FALSE(decoded->trace[0].dropped);
  EXPECT_EQ(decoded->trace[1].policy, "fence");
  EXPECT_TRUE(decoded->trace[1].dropped);
  EXPECT_EQ(decoded->trace[1].detail, "outside boundary");
}

TEST(CaptureWriterReader, FullFileRoundTripAndValidate) {
  const std::string path = temp_path("roundtrip");
  const ByteStream bytes = write_sample_capture(path);
  CaptureReader reader{ByteStream(bytes)};

  ASSERT_TRUE(reader.header().has_value());
  EXPECT_EQ(reader.header()->num_aps, 2u);

  // Walk in file order: chunk, chunk, decision, drain, end.
  auto r1 = reader.next();
  ASSERT_TRUE(r1 && r1->type == RecordType::kChunk);
  EXPECT_EQ(r1->chunk->ap, 0u);
  auto r2 = reader.next();
  ASSERT_TRUE(r2 && r2->type == RecordType::kChunk);
  EXPECT_EQ(r2->chunk->ap, 1u);
  auto r3 = reader.next();
  ASSERT_TRUE(r3 && r3->type == RecordType::kDecision);
  EXPECT_EQ(r3->decision->sequence, 0u);
  EXPECT_EQ(r3->decision->absolute_start, 123u);
  auto r4 = reader.next();
  ASSERT_TRUE(r4 && r4->type == RecordType::kDrain);
  auto r5 = reader.next();
  ASSERT_TRUE(r5 && r5->type == RecordType::kEnd);
  EXPECT_EQ(r5->end->chunks, 2u);
  EXPECT_EQ(r5->end->decisions, 1u);
  EXPECT_EQ(r5->end->drains, 1u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error().empty());

  const ValidationReport report = reader.validate();
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.chunks, 2u);
  EXPECT_EQ(report.decisions, 1u);
  EXPECT_EQ(report.drains, 1u);
  EXPECT_TRUE(report.end_seen);

  std::remove(path.c_str());
}

TEST(CaptureWriterReader, WriterCloseSemantics) {
  const std::string path = temp_path("close");
  CaptureWriter writer(path, small_header());
  EXPECT_FALSE(writer.closed());
  writer.record_drain();
  writer.close();
  EXPECT_TRUE(writer.closed());
  // Recording after close is a state error (the engine taps guard on
  // closed() for exactly this reason).
  EXPECT_THROW(writer.record_drain(), StateError);
  EXPECT_THROW(writer.record_decision(0, 0, sample_decision()), StateError);
  // close() is idempotent.
  writer.close();

  auto reader = CaptureReader::from_file(path);
  ASSERT_TRUE(reader.has_value());
  EXPECT_TRUE(reader->validate().ok);
  std::remove(path.c_str());
}

TEST(CaptureReader, TruncatedFileFailsValidation) {
  const std::string path = temp_path("trunc");
  const ByteStream bytes = write_sample_capture(path);
  std::remove(path.c_str());

  // Chop the tail at several depths: missing end record, mid-record,
  // mid-framing, mid-header. All must fail cleanly.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{30}, std::size_t{6},
        std::size_t{3}, std::size_t{0}}) {
    ByteStream cut(bytes.begin(), bytes.begin() + static_cast<long>(keep));
    CaptureReader reader(std::move(cut));
    const ValidationReport report = reader.validate();
    EXPECT_FALSE(report.ok) << "kept " << keep << " bytes";
    EXPECT_FALSE(report.error.empty());
  }
}

TEST(CaptureReader, BadMagicAndVersionRejected) {
  const std::string path = temp_path("magic");
  ByteStream bytes = write_sample_capture(path);
  std::remove(path.c_str());

  ByteStream bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(CaptureReader(std::move(bad_magic)).header().has_value());

  ByteStream bad_version = bytes;
  bad_version[4] = 0xEE;  // version field follows the magic
  EXPECT_FALSE(CaptureReader(std::move(bad_version)).header().has_value());
}

TEST(CaptureReader, DataAfterEndRecordIsRejected) {
  const std::string path = temp_path("afterend");
  ByteStream bytes = write_sample_capture(path);
  std::remove(path.c_str());
  bytes.push_back(0);  // one stray byte after the end record
  CaptureReader reader(std::move(bytes));
  const ValidationReport report = reader.validate();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("end record"), std::string::npos)
      << report.error;
}

TEST(CaptureReader, OversizedLengthFieldIsRejected) {
  const std::string path = temp_path("len");
  ByteStream bytes = write_sample_capture(path);
  std::remove(path.c_str());
  CaptureReader probe{ByteStream(bytes)};
  ASSERT_TRUE(probe.header().has_value());
  // The first record's length prefix starts right after the header;
  // find it by re-encoding the header.
  const std::size_t body = encode_header(*probe.header()).size();
  bytes[body + 0] = 0xFF;
  bytes[body + 1] = 0xFF;
  bytes[body + 2] = 0xFF;
  bytes[body + 3] = 0x7F;  // ~2 GB claimed payload
  CaptureReader reader(std::move(bytes));
  const ValidationReport report = reader.validate();
  EXPECT_FALSE(report.ok);
}

TEST(CaptureMutate, DeterministicAndUsuallyDamaging) {
  const std::string path = temp_path("mutate");
  const ByteStream bytes = write_sample_capture(path);
  std::remove(path.c_str());

  const ByteStream a = mutate_capture(bytes, 99, 8);
  const ByteStream b = mutate_capture(bytes, 99, 8);
  EXPECT_EQ(a, b) << "same seed must produce the same mutant";
  const ByteStream c = mutate_capture(bytes, 100, 8);
  EXPECT_NE(a, c) << "different seeds should diverge";

  // Whatever the mutation did, parsing must terminate cleanly: either a
  // valid capture (the ops happened to hit slack bytes) or a reported
  // error — never a crash or hang.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    CaptureReader reader(mutate_capture(bytes, seed, 8));
    (void)reader.validate();
  }
}

TEST(CaptureDiffTool, EqualAndUnequalCaptures) {
  const std::string pa = temp_path("diff_a");
  const std::string pb = temp_path("diff_b");
  const ByteStream a = write_sample_capture(pa);
  const ByteStream b = write_sample_capture(pb);
  std::remove(pa.c_str());
  std::remove(pb.c_str());

  CaptureReader ra{ByteStream(a)};
  CaptureReader rb{ByteStream(b)};
  EXPECT_TRUE(diff_captures(ra, rb).equal);

  // A capture with a different decision must not diff equal.
  const std::string pc = temp_path("diff_c");
  {
    CaptureWriter writer(pc, small_header());
    writer.record_chunk(0, 0, 0, small_chunk(2, 5, 0.5));
    writer.record_chunk(1, 0, 0, small_chunk(2, 5, 1.5));
    FrameDecision changed = sample_decision();
    changed.accepted = true;
    changed.policy = "";
    changed.detail = "";
    writer.record_decision(0, 123, changed);
    writer.record_drain();
    writer.close();
  }
  auto rc = CaptureReader::from_file(pc);
  std::remove(pc.c_str());
  ASSERT_TRUE(rc.has_value());
  const CaptureDiff diff = diff_captures(ra, *rc);
  EXPECT_FALSE(diff.equal);
  EXPECT_NE(diff.detail.find("decision"), std::string::npos) << diff.detail;
}

TEST(CaptureDiffTool, ChunkInterleavingDoesNotMatter) {
  // Two captures of the same per-AP streams, with the records physically
  // interleaved differently (as concurrent submitters legally may) must
  // diff equal: the comparison is per-AP track, not file order.
  const std::string pa = temp_path("ilv_a");
  const std::string pb = temp_path("ilv_b");
  {
    CaptureWriter writer(pa, small_header());
    writer.record_chunk(0, 0, 0, small_chunk(2, 4, 0.0));
    writer.record_chunk(0, 1, 4, small_chunk(2, 4, 1.0));
    writer.record_chunk(1, 0, 0, small_chunk(2, 4, 2.0));
    writer.record_chunk(1, 1, 4, small_chunk(2, 4, 3.0));
    writer.record_drain();
    writer.close();
  }
  {
    CaptureWriter writer(pb, small_header());
    writer.record_chunk(1, 0, 0, small_chunk(2, 4, 2.0));
    writer.record_chunk(0, 0, 0, small_chunk(2, 4, 0.0));
    writer.record_chunk(1, 1, 4, small_chunk(2, 4, 3.0));
    writer.record_chunk(0, 1, 4, small_chunk(2, 4, 1.0));
    writer.record_drain();
    writer.close();
  }
  auto ra = CaptureReader::from_file(pa);
  auto rb = CaptureReader::from_file(pb);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  ASSERT_TRUE(ra && rb);
  const CaptureDiff diff = diff_captures(*ra, *rb);
  EXPECT_TRUE(diff.equal) << diff.detail;
}

}  // namespace
}  // namespace sa
