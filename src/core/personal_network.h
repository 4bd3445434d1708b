// The personal network: a user's implicit social acquaintances (Section 2.1).
//
// Network(u) holds the s users with the highest similarity scores, each with
// her score, profile digest, and a timestamp counting "for how many cycles
// she has not been gossiped with". Only the profiles of the c highest-scored
// entries are stored locally (the replicas queries are computed from); the
// remaining s-c entries are ids+digests only and form the remaining lists of
// eager mode.
#ifndef P3Q_CORE_PERSONAL_NETWORK_H_
#define P3Q_CORE_PERSONAL_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gossip/view.h"
#include "profile/profile.h"

namespace p3q {

/// One neighbour of a personal network.
struct NetworkEntry {
  UserId user = kInvalidUser;
  /// Score_self(user) = common tagging actions, computed against the
  /// `digest` snapshot version.
  std::uint64_t score = 0;
  /// Digest descriptor of the neighbour (always present).
  DigestInfo digest;
  /// Cycles since this neighbour was last gossiped with.
  std::uint32_t timestamp = 0;
  /// Stored profile replica — non-null only while the entry ranks in the
  /// top-c. Version always equals digest.version().
  ProfilePtr stored_profile;

  bool HasStoredProfile() const { return stored_profile != nullptr; }
};

/// Outcome of offering a candidate to the network.
struct ConsiderOutcome {
  /// Candidate was inserted or its replica/score was refreshed.
  bool accepted = false;
  /// Candidate now ranks in the top-c and its profile replica was stored
  /// (the caller must account the full-profile transfer).
  bool stored_profile = false;
};

/// A size-bounded, score-ordered set of neighbours.
class PersonalNetwork {
 public:
  /// self: owner; s: network capacity; c: stored-profile capacity (c <= s).
  PersonalNetwork(UserId self, int s, int c);

  int capacity() const { return s_; }
  int storage_capacity() const { return c_; }
  std::size_t size() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }

  /// Entries ordered by descending score (ties: ascending user id).
  const std::vector<NetworkEntry>& entries() const { return entries_; }

  bool Contains(UserId user) const { return Find(user) != nullptr; }

  /// Entry of `user`, or nullptr. A linear scan: s is at most a few hundred
  /// and the entries are contiguous, so no side index is kept.
  const NetworkEntry* Find(UserId user) const;

  /// Version of the digest we hold for `user`; kNoVersion when absent.
  static constexpr std::uint32_t kNoVersion = 0xffffffffu;
  std::uint32_t KnownVersion(UserId user) const;

  /// Offers a scored candidate. Inserts when the score qualifies for the
  /// top-s (score must be > 0), refreshes score/digest when the candidate is
  /// already a neighbour, stores/evicts replicas so that exactly the top-c
  /// entries hold profiles. `replica` may be null when the caller only has
  /// the digest; in that case the entry joins without a stored profile even
  /// if it ranks top-c (the caller should then fetch the profile — see
  /// EntriesNeedingProfile). The changed entry moves to its new rank in
  /// place (one binary search and one rotate), and only the entries that
  /// cross rank c lose their replicas.
  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica);

  /// Entries ranked in the top-c whose replica is missing or older than the
  /// digest we know about (they are entitled to storage; the protocol
  /// fetches their profiles in step 3 of Algorithm 1).
  std::vector<UserId> EntriesNeedingProfile() const;

  /// Neighbour with the largest timestamp (the one not gossiped with for
  /// longest); kInvalidUser when empty. `skip` users are excluded (offline
  /// retry).
  UserId OldestNeighbour(const std::vector<UserId>& skip = {}) const;

  /// Marks `user` as just-gossiped-with (timestamp 0) and ages every other
  /// neighbour by one cycle. Initiator-side bookkeeping of the lazy mode.
  void TouchGossiped(UserId user);

  /// Resets `user`'s timestamp without ageing the others (responder-side:
  /// the responder did gossip with the initiator this cycle, but her own
  /// ageing happens when she initiates).
  void ResetTimestamp(UserId user);

  /// Stored profile replicas (the c highest-scored entries).
  std::vector<ProfilePtr> StoredProfiles() const;

  /// Stored replica of `user`, or null.
  ProfilePtr StoredProfileOf(UserId user) const;

  /// All member ids (score order).
  std::vector<UserId> Members() const;

  /// Member ids without a stored replica — the initial remaining list of a
  /// query (score order).
  std::vector<UserId> MembersWithoutProfile() const;

  /// Removes a user entirely (e.g. permanently departed).
  void Remove(UserId user);

  /// Sum of stored-replica lengths (the paper's storage metric, Fig. 5).
  std::size_t StoredProfileActions() const;

  /// Checkpoint restore: replaces the contents with `entries`, re-sorting
  /// into canonical order. Entries past the top-c lose any stored replica
  /// (the storage invariant).
  void RestoreEntries(std::vector<NetworkEntry> entries);

  /// Bytes held by the entry array: its capacity, not its size. The array
  /// grows on demand rather than reserving s entries up front, so this
  /// follows how full the network has been.
  std::size_t EntryBytes() const {
    return entries_.capacity() * sizeof(NetworkEntry);
  }

  /// Checks the structural invariants: entries in canonical order, at most
  /// s of them, no self entry, no duplicate user, replicas only in the
  /// top-c and never newer than their digest, and Find/Contains agreeing
  /// with entries(). Returns the first violation, or "" when all hold.
  std::string CheckInvariants() const;

 private:
  /// Position of `user`'s entry, or size() when absent.
  std::size_t IndexOf(UserId user) const;

  /// Moves the entry at `from` to its rank in canonical order and drops the
  /// replicas of entries that crossed rank c; returns its new position.
  std::size_t Reposition(std::size_t from);

  UserId self_;
  int s_;
  int c_;
  std::vector<NetworkEntry> entries_;  // sorted: score desc, id asc
};

}  // namespace p3q

#endif  // P3Q_CORE_PERSONAL_NETWORK_H_
