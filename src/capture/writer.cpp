#include "sa/capture/writer.hpp"

#include "sa/common/error.hpp"
#include "sa/common/logging.hpp"

namespace sa {

CaptureWriter::CaptureWriter(const std::string& path, CaptureHeader header)
    : path_(path), version_(header.version), tracks_(header.num_aps) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw Error("CaptureWriter: cannot open '" + path + "' for writing");
  }
  const ByteStream head = encode_header(header);
  if (std::fwrite(head.data(), 1, head.size(), file_) != head.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw Error("CaptureWriter: header write to '" + path + "' failed");
  }
}

CaptureWriter::~CaptureWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    log_error() << "CaptureWriter close failed in destructor: " << e.what();
  }
}

void CaptureWriter::write(RecordType type, const ByteStream& payload) {
  if (closed_) throw StateError("CaptureWriter: record after close()");
  ByteStream record;
  append_record(record, type, payload);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    write_failed_ = true;
  }
}

void CaptureWriter::record(RecordType type, const ByteStream& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  write(type, payload);
  switch (type) {
    case RecordType::kDecision: ++decisions_; break;
    case RecordType::kSiteDecision: ++decisions_; break;
    case RecordType::kAssoc: ++assocs_; break;
    case RecordType::kDrain: ++drains_; break;
    default: break;  // kTransport is not tallied in kEnd
  }
}

void CaptureWriter::record_chunk(std::size_t ap, const CMat& samples) {
  std::lock_guard<std::mutex> lock(mu_);
  SA_EXPECTS(ap < tracks_.size());
  ApTrack& track = tracks_[ap];
  write(RecordType::kChunk, encode_chunk(static_cast<std::uint32_t>(ap),
                                         track.chunks, track.columns, samples));
  ++track.chunks;
  track.columns += samples.cols();
  ++chunks_;
}

void CaptureWriter::record_decision(std::uint64_t sequence,
                                    std::uint64_t absolute_start,
                                    const FrameDecision& decision) {
  record(RecordType::kDecision,
         encode_decision(sequence, absolute_start, decision));
}

void CaptureWriter::record_site_decision(std::uint32_t site,
                                         std::uint64_t sequence,
                                         std::uint64_t absolute_start,
                                         const FrameDecision& decision) {
  record(RecordType::kSiteDecision,
         encode_site_decision(site, sequence, absolute_start, decision));
}

void CaptureWriter::record_assoc(const AssocRecord& assoc) {
  record(RecordType::kAssoc, encode_assoc(assoc));
}

void CaptureWriter::record_transport(const TransportRecord& transport) {
  record(RecordType::kTransport, encode_transport(transport));
}

void CaptureWriter::record_drain() { record(RecordType::kDrain, {}); }

void CaptureWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  EndRecord end;
  end.chunks = chunks_;
  end.decisions = decisions_;
  end.drains = drains_;
  end.assocs = assocs_;
  write(RecordType::kEnd, encode_end(end, version_));
  closed_ = true;
  if (std::fclose(file_) != 0) write_failed_ = true;
  file_ = nullptr;
  if (write_failed_) {
    throw Error("CaptureWriter: write to '" + path_ + "' failed");
  }
}

bool CaptureWriter::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::uint64_t CaptureWriter::chunks_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_;
}

std::uint64_t CaptureWriter::decisions_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

std::uint64_t CaptureWriter::drains_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drains_;
}

std::uint64_t CaptureWriter::assocs_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return assocs_;
}

}  // namespace sa
