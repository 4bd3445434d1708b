#include "core/personal_network.h"

#include <algorithm>
#include <string>

namespace p3q {
namespace {

/// Ordering of the network: higher score first, then lower user id so the
/// order (and thus the stored top-c set) is deterministic.
bool EntryBefore(const NetworkEntry& a, const NetworkEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.user < b.user;
}

}  // namespace

PersonalNetwork::PersonalNetwork(UserId self, int s, int c)
    : self_(self), s_(s), c_(c) {}

std::size_t PersonalNetwork::IndexOf(UserId user) const {
  std::size_t i = 0;
  while (i < entries_.size() && entries_[i].user != user) ++i;
  return i;
}

const NetworkEntry* PersonalNetwork::Find(UserId user) const {
  const std::size_t i = IndexOf(user);
  return i == entries_.size() ? nullptr : &entries_[i];
}

std::uint32_t PersonalNetwork::KnownVersion(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? kNoVersion : e->digest.version();
}

std::size_t PersonalNetwork::Reposition(std::size_t from) {
  const auto first = entries_.begin();
  const auto pos = first + static_cast<std::ptrdiff_t>(from);
  std::size_t to = from;
  if (pos != first && EntryBefore(*pos, *(pos - 1))) {
    // Moves up: in front of the first entry it now ranks before.
    const auto dest = std::upper_bound(first, pos, *pos, EntryBefore);
    to = static_cast<std::size_t>(dest - first);
    std::rotate(dest, pos, pos + 1);
  } else if (pos + 1 != entries_.end() && EntryBefore(*(pos + 1), *pos)) {
    // Moves down: behind the last entry that still ranks before it.
    const auto dest = std::lower_bound(pos + 1, entries_.end(), *pos,
                                       EntryBefore);
    to = static_cast<std::size_t>(dest - first) - 1;
    std::rotate(pos, pos + 1, dest);
  }
  // Only entries ranked in the top-c may hold replicas, and just two can
  // have crossed rank c: the moved entry, and the one pushed down to rank c
  // when the moved entry rose past it.
  const std::size_t c = static_cast<std::size_t>(c_);
  if (to >= c) entries_[to].stored_profile.reset();
  if (c < entries_.size()) entries_[c].stored_profile.reset();
  return to;
}

ConsiderOutcome PersonalNetwork::Consider(UserId user, std::uint64_t score,
                                          const DigestInfo& digest,
                                          ProfilePtr replica) {
  ConsiderOutcome outcome;
  if (user == self_ || score == 0) return outcome;

  std::size_t from = IndexOf(user);
  std::uint32_t old_stored_version = kNoVersion;
  if (from != entries_.size()) {
    NetworkEntry& entry = entries_[from];
    // Refresh only when the offered digest is at least as new as ours.
    if (digest.version() < entry.digest.version()) return outcome;
    if (entry.HasStoredProfile()) {
      old_stored_version = entry.stored_profile->version();
    }
    entry.score = score;
    entry.digest = digest;
    if (replica != nullptr &&
        (old_stored_version == kNoVersion ||
         replica->version() > old_stored_version)) {
      entry.stored_profile = std::move(replica);
    }
  } else {
    // New candidate: qualify against the current worst when full.
    if (static_cast<int>(entries_.size()) >= s_) {
      NetworkEntry probe;
      probe.user = user;
      probe.score = score;
      if (!EntryBefore(probe, entries_.back())) return outcome;
      entries_.pop_back();
    }
    NetworkEntry entry;
    entry.user = user;
    entry.score = score;
    entry.digest = digest;
    entry.timestamp = 0;
    entry.stored_profile = std::move(replica);
    entries_.push_back(std::move(entry));
    from = entries_.size() - 1;
  }
  const NetworkEntry& now = entries_[Reposition(from)];
  outcome.accepted = true;
  // A transfer happened iff the entry now stores a replica strictly newer
  // than what it stored before (or one where none existed).
  outcome.stored_profile =
      now.HasStoredProfile() &&
      (old_stored_version == kNoVersion ||
       now.stored_profile->version() > old_stored_version);
  return outcome;
}

std::vector<UserId> PersonalNetwork::EntriesNeedingProfile() const {
  std::vector<UserId> out;
  const std::size_t limit =
      std::min(entries_.size(), static_cast<std::size_t>(c_));
  for (std::size_t i = 0; i < limit; ++i) {
    const NetworkEntry& e = entries_[i];
    if (!e.HasStoredProfile() ||
        e.stored_profile->version() < e.digest.version()) {
      out.push_back(e.user);
    }
  }
  return out;
}

UserId PersonalNetwork::OldestNeighbour(const std::vector<UserId>& skip) const {
  UserId best = kInvalidUser;
  std::uint32_t best_ts = 0;
  for (const NetworkEntry& e : entries_) {
    if (std::find(skip.begin(), skip.end(), e.user) != skip.end()) continue;
    if (best == kInvalidUser || e.timestamp > best_ts ||
        (e.timestamp == best_ts && e.user < best)) {
      best = e.user;
      best_ts = e.timestamp;
    }
  }
  return best;
}

void PersonalNetwork::TouchGossiped(UserId user) {
  for (NetworkEntry& e : entries_) {
    if (e.user == user) {
      e.timestamp = 0;
    } else {
      ++e.timestamp;
    }
  }
}

void PersonalNetwork::ResetTimestamp(UserId user) {
  const std::size_t i = IndexOf(user);
  if (i != entries_.size()) entries_[i].timestamp = 0;
}

std::vector<ProfilePtr> PersonalNetwork::StoredProfiles() const {
  std::vector<ProfilePtr> out;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) out.push_back(e.stored_profile);
  }
  return out;
}

ProfilePtr PersonalNetwork::StoredProfileOf(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? nullptr : e->stored_profile;
}

std::vector<UserId> PersonalNetwork::Members() const {
  std::vector<UserId> out;
  out.reserve(entries_.size());
  for (const NetworkEntry& e : entries_) out.push_back(e.user);
  return out;
}

std::vector<UserId> PersonalNetwork::MembersWithoutProfile() const {
  std::vector<UserId> out;
  for (const NetworkEntry& e : entries_) {
    if (!e.HasStoredProfile()) out.push_back(e.user);
  }
  return out;
}

void PersonalNetwork::Remove(UserId user) {
  // Later entries move up one rank; none crosses rank c downwards.
  const std::size_t i = IndexOf(user);
  if (i != entries_.size()) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void PersonalNetwork::RestoreEntries(std::vector<NetworkEntry> entries) {
  entries_ = std::move(entries);
  std::sort(entries_.begin(), entries_.end(), EntryBefore);
  for (std::size_t i = static_cast<std::size_t>(c_); i < entries_.size(); ++i) {
    entries_[i].stored_profile.reset();
  }
}

std::size_t PersonalNetwork::StoredProfileActions() const {
  std::size_t total = 0;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) total += e.stored_profile->Length();
  }
  return total;
}

std::string PersonalNetwork::CheckInvariants() const {
  if (entries_.size() > static_cast<std::size_t>(s_)) {
    return "holds " + std::to_string(entries_.size()) + " entries, s = " +
           std::to_string(s_);
  }
  std::vector<UserId> users = Members();
  std::sort(users.begin(), users.end());
  if (std::adjacent_find(users.begin(), users.end()) != users.end()) {
    return "holds a user twice";
  }
  auto violation = [](std::size_t i, const NetworkEntry& e, const char* what) {
    return "entry " + std::to_string(i) + " (user " + std::to_string(e.user) +
           ") " + what;
  };
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const NetworkEntry& e = entries_[i];
    if (i > 0 && !EntryBefore(entries_[i - 1], e)) {
      return violation(i, e, "is out of order");
    }
    if (e.user == self_) return violation(i, e, "is the owner");
    if (e.HasStoredProfile()) {
      if (i >= static_cast<std::size_t>(c_)) {
        return violation(i, e, "stores a replica outside the top-c");
      }
      if (e.stored_profile->version() > e.digest.version()) {
        return violation(i, e, "stores a replica newer than its digest");
      }
    }
    if (Find(e.user) != &e || !Contains(e.user)) {
      return violation(i, e, "is not what Find returns");
    }
  }
  return "";
}

}  // namespace p3q
