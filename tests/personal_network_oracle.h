// Test oracle for core/personal_network: the original PersonalNetwork, which
// re-sorts every entry and rebuilds an id -> position hash index on each
// offer. It is slow but obviously correct; the differential test
// (personal_network_diff_test.cc) drives it and the in-place production
// implementation through the same seeded operation sequences and requires
// identical entries and outcomes after every step.
#ifndef P3Q_TESTS_PERSONAL_NETWORK_ORACLE_H_
#define P3Q_TESTS_PERSONAL_NETWORK_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/personal_network.h"

namespace p3q::test {

class OraclePersonalNetwork {
 public:
  OraclePersonalNetwork(UserId self, int s, int c)
      : self_(self), s_(s), c_(c) {}

  const std::vector<NetworkEntry>& entries() const { return entries_; }

  const NetworkEntry* Find(UserId user) const {
    auto it = index_.find(user);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica) {
    ConsiderOutcome outcome;
    if (user == self_ || score == 0) return outcome;

    auto it = index_.find(user);
    if (it != index_.end()) {
      NetworkEntry& entry = entries_[it->second];
      if (digest.version() < entry.digest.version()) return outcome;
      const std::uint32_t old_stored_version =
          entry.HasStoredProfile() ? entry.stored_profile->version()
                                   : PersonalNetwork::kNoVersion;
      entry.score = score;
      entry.digest = digest;
      if (replica != nullptr &&
          (old_stored_version == PersonalNetwork::kNoVersion ||
           replica->version() > old_stored_version)) {
        entry.stored_profile = std::move(replica);
      }
      SortRebalanceReindex();
      outcome.accepted = true;
      const NetworkEntry* now = Find(user);
      outcome.stored_profile =
          now->HasStoredProfile() &&
          (old_stored_version == PersonalNetwork::kNoVersion ||
           now->stored_profile->version() > old_stored_version);
      return outcome;
    }

    if (static_cast<int>(entries_.size()) >= s_) {
      NetworkEntry probe;
      probe.user = user;
      probe.score = score;
      if (!Before(probe, entries_.back())) return outcome;
      entries_.pop_back();
    }
    NetworkEntry entry;
    entry.user = user;
    entry.score = score;
    entry.digest = digest;
    entry.stored_profile = std::move(replica);
    entries_.push_back(std::move(entry));
    SortRebalanceReindex();
    outcome.accepted = true;
    outcome.stored_profile = Find(user)->HasStoredProfile();
    return outcome;
  }

  void TouchGossiped(UserId user) {
    for (NetworkEntry& e : entries_) {
      if (e.user == user) {
        e.timestamp = 0;
      } else {
        ++e.timestamp;
      }
    }
  }

  void ResetTimestamp(UserId user) {
    auto it = index_.find(user);
    if (it != index_.end()) entries_[it->second].timestamp = 0;
  }

  void Remove(UserId user) {
    auto it = index_.find(user);
    if (it == index_.end()) return;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(it->second));
    SortRebalanceReindex();
  }

  void RestoreEntries(std::vector<NetworkEntry> entries) {
    entries_ = std::move(entries);
    SortRebalanceReindex();
  }

 private:
  static bool Before(const NetworkEntry& a, const NetworkEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.user < b.user;
  }

  void SortRebalanceReindex() {
    std::sort(entries_.begin(), entries_.end(), Before);
    for (std::size_t i = static_cast<std::size_t>(c_); i < entries_.size();
         ++i) {
      entries_[i].stored_profile.reset();
    }
    index_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_[entries_[i].user] = i;
    }
  }

  UserId self_;
  int s_;
  int c_;
  std::vector<NetworkEntry> entries_;
  std::unordered_map<UserId, std::size_t> index_;
};

}  // namespace p3q::test

#endif  // P3Q_TESTS_PERSONAL_NETWORK_ORACLE_H_
