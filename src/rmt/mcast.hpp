// Multicast group table of the traffic manager.
//
// The replicator (§5.1) relies on one general switch capability: the mcast
// engine replicates a packet to every member (port, rid) of a group. For
// template packets the group contains the recirculation port (keeping the
// template in the loop) plus the test egress ports.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace ht::rmt {

struct McastMember {
  std::uint16_t port = 0;
  std::uint16_t rid = 0;  ///< replication id, visible to egress processing
};

class McastGroupTable {
 public:
  void configure(std::uint16_t group, std::vector<McastMember> members) {
    groups_[group] = std::move(members);
  }
  void remove(std::uint16_t group) { groups_.erase(group); }
  bool contains(std::uint16_t group) const { return groups_.count(group) != 0; }

  const std::vector<McastMember>& members(std::uint16_t group) const {
    const auto it = groups_.find(group);
    if (it == groups_.end()) {
      throw std::out_of_range("mcast group not configured: " + std::to_string(group));
    }
    return it->second;
  }

 private:
  std::unordered_map<std::uint16_t, std::vector<McastMember>> groups_;
};

}  // namespace ht::rmt
