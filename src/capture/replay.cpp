#include "sa/capture/replay.hpp"

#include <utility>

#include "sa/engine/session.hpp"

namespace sa {

std::optional<ReplaySource> ReplaySource::from_file(const std::string& path) {
  auto reader = CaptureReader::from_file(path);
  if (!reader) return std::nullopt;
  return ReplaySource(std::move(*reader));
}

ReplayResult ReplaySource::replay_into(EngineSession& session) {
  ReplayResult result;
  if (!reader_.header()) {
    result.error = "malformed SACP header";
    return result;
  }
  if (reader_.header()->version >= kSacpVersionFleet) {
    result.error =
        "fleet capture (version " +
        std::to_string(reader_.header()->version) +
        "): replay it with replay_fleet_capture";
    return result;
  }
  const std::uint32_t num_aps = reader_.header()->num_aps;
  reader_.rewind();
  bool saw_end = false;
  for (;;) {
    auto rec = reader_.next();
    if (!rec) break;
    switch (rec->type) {
      case RecordType::kChunk:
        if (rec->chunk->ap >= num_aps) {
          result.error = "chunk record targets AP " +
                         std::to_string(rec->chunk->ap) + " of " +
                         std::to_string(num_aps);
          return result;
        }
        session.submit(rec->chunk->ap, std::move(rec->chunk->samples));
        ++result.chunks_submitted;
        break;
      case RecordType::kDrain:
        session.drain();
        ++result.drains_run;
        break;
      case RecordType::kDecision:
      case RecordType::kSiteDecision:
        break;  // the recorded output tracks; not inputs
      case RecordType::kAssoc:
      case RecordType::kTransport:
        // Meaningful only to the fleet replay driver
        // (replay_fleet_capture), which re-issues the handoff and
        // re-checks its transport verdict; a plain single-session
        // replay has no sites to hand off between.
        break;
      case RecordType::kEnd:
        saw_end = true;
        break;
    }
  }
  if (!reader_.error().empty()) {
    result.error = reader_.error();
    return result;
  }
  if (!saw_end) {
    result.error = "no end record (truncated capture?)";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace sa
