// Incremental Schmidl-Cox detection over an append-only sample window.
//
// StreamingReceiver scans its history window once per chunk. Run fresh,
// SchmidlCoxDetector::detect would recompute the coarse P/R/M terms of
// the whole window and re-run the LTF fine search of every packet still
// inside it, every round. IncrementalScDetector returns exactly what
// detect(window, base) returns — every field bit-identical — but keys
// both costly stages by *absolute* sample position, because conditioned
// samples never change once appended:
//
//   - Coarse terms: anchored at absolute positions (kScAnchor), so a
//     position's P, R and M are final once computed. They are kept in
//     rings keyed by absolute index; a scan computes only the positions
//     the chunk added, plus the at most kScAnchor - 1 head positions
//     before the window's first anchor when a trim moved the origin.
//   - Fine searches: memoized by plateau position once the whole search
//     span was inside the window.
//
// Scan work is O(new samples), plus the decision loop's one compare per
// window position and the fine searches of newly seen plateaus.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "sa/linalg/cvec.hpp"
#include "sa/phy/detector.hpp"

namespace sa {

class IncrementalScDetector {
 public:
  explicit IncrementalScDetector(DetectorConfig config);

  /// Scan the window `x[0 .. len)` whose first sample sits at absolute
  /// stream index `base`. Returns exactly what
  /// SchmidlCoxDetector::detect(window, base) returns — detection starts
  /// relative to the window, every field bit-identical.
  /// Successive calls must present consistent data: a sample at absolute
  /// index i must carry the same value in every window that contains it
  /// (append-only stream, trims only move `base` forward).
  std::vector<PacketDetection> scan(const cd* x, std::size_t len,
                                    std::size_t base);

  /// Drop all cached state (e.g. when the absolute coordinate space is
  /// reused for unrelated data).
  void reset();

  const DetectorConfig& config() const { return config_; }

  // Cache observability for tests and benches.
  std::size_t fine_searches_run() const { return fine_searches_; }
  std::size_t fine_cache_hits() const { return fine_cache_hits_; }
  std::size_t fine_cache_size() const { return fine_cache_.size(); }
  /// Coarse positions computed so far: new positions plus recomputed
  /// heads — about one per appended sample in steady state.
  std::size_t coarse_positions_computed() const { return coarse_positions_; }

 private:
  DetectorConfig config_;
  LtfFineSearch fine_;

  // Coarse terms by absolute position j, at slot j & (size - 1); the
  // positions [origin_, origin_ + computed_) are up to date.
  std::vector<cd> p_;
  std::vector<double> r_;
  std::vector<double> m_;
  std::size_t origin_ = 0;
  std::size_t computed_ = 0;

  /// Memoized fine searches, keyed by the absolute plateau position,
  /// positions absolute. Recorded only when the whole search span
  /// [k, k + fine_search_span) was inside the window, so they are final.
  std::unordered_map<std::size_t, LtfPeak> fine_cache_;
  std::size_t fine_searches_ = 0;
  std::size_t fine_cache_hits_ = 0;
  std::size_t coarse_positions_ = 0;
};

}  // namespace sa
