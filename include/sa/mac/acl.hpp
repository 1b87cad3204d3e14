// Address-based access control list — the weak baseline defence that
// link-layer spoofing subverts (paper §1). SecureAngle's spoof detector
// layers on top of this.
//
// Storage is the flat open-addressing set every per-MAC defence uses
// (sa/common/compact/flat_lru_map.hpp): no per-entry allocations, and a
// lookup is one probe run whether the MAC is listed or not.
#pragma once

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/mac/address.hpp"

namespace sa {

class AccessControlList {
 public:
  void allow(const MacAddress& addr) { set_.get_or_emplace(addr); }
  void revoke(const MacAddress& addr) { set_.erase(addr); }
  bool is_allowed(const MacAddress& addr) const {
    return set_.find(addr) != nullptr;
  }
  std::size_t size() const { return set_.size(); }

  /// Footprint of the set.
  std::size_t memory_bytes() const { return set_.memory_bytes(); }

 private:
  struct Empty {};

  FlatLruMap<MacAddress, Empty> set_;
};

}  // namespace sa
