// Independent correctness checks of the benchmark.
//
// Every checker works on plain copies of the program's outputs (ids, scores,
// versions, item lists, bytes) and recomputes the expected answer itself
// from raw tagging actions — never from stored copies of an earlier run's
// output and never through the program's own scoring kernels. A checker
// returns an empty string when the output is right, else a description of
// the first problem; checks_test.cc feeds each one deliberately wrong
// answers.
#ifndef P3Q_PERFBENCH_CHECKS_H_
#define P3Q_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace p3q::perfbench {

/// Sorted actions of one user at one profile version.
using Actions = std::vector<ActionKey>;

/// The benchmark's own record of every profile version it has published:
/// versions[u][v] is user u's sorted unique actions at version v.
struct ProfileHistory {
  std::vector<std::vector<Actions>> versions;

  std::size_t NumUsers() const { return versions.size(); }
  const Actions& Current(UserId u) const { return versions[u].back(); }
  /// Actions of (u, version); null when the benchmark never saw that version.
  const Actions* At(UserId u, std::uint32_t version) const;
};

/// |a ∩ b| of two sorted unique action lists, by a plain merge.
std::size_t CountCommon(std::span<const ActionKey> a,
                        std::span<const ActionKey> b);

/// Sorted union of two sorted unique action lists.
Actions SortedUnion(const Actions& a, const Actions& b);

/// Sorts and deduplicates.
Actions Canonical(Actions actions);

/// One personal-network entry, copied out of the program.
struct EntryView {
  UserId user = kInvalidUser;
  std::uint64_t score = 0;
  std::uint32_t digest_version = 0;
  bool has_replica = false;
  std::uint32_t replica_version = 0;
};

/// One personal network, copied out of the program.
struct NetworkView {
  UserId owner = kInvalidUser;
  int s = 0;  ///< network capacity
  int c = 0;  ///< this owner's stored-profile capacity
  std::vector<EntryView> entries;
};

/// Checks a personal network against the benchmark's profile history:
/// at most s entries, never the owner, no duplicates; ordered by score
/// descending then id ascending; each score equals |own ∩ neighbour| where
/// the neighbour's actions are taken at the held digest's version and the
/// owner's at one of her published versions (a score is computed against
/// the owner's profile of the moment, and updates only ever add versions);
/// exactly the top min(c, size) entries hold a replica, whose version
/// equals the digest's.
std::string CheckNetwork(const NetworkView& network,
                         const ProfileHistory& history);

/// Ranked score vector of a network (scores in entry order).
std::vector<std::uint64_t> ScoreVector(const NetworkView& network);

/// With static profiles a network only ever improves: the new ranked score
/// vector is at least as long as the old one and never lower position by
/// position.
std::string CheckMonotone(const std::vector<std::uint64_t>& before,
                          const std::vector<std::uint64_t>& after);

/// A ranked result entry: item and its exact (or worst-case) score.
using ScoredItem = std::pair<ItemId, std::uint64_t>;

/// Brute-force top-k: score(i) = Σ over `profiles` of |{t ∈ tags :
/// Tagged(i, t)}|, items with positive score only, ranked by score
/// descending then item id ascending, truncated to k.
std::vector<ScoredItem> BruteForceTopK(
    const std::vector<const Actions*>& profiles,
    const std::vector<TagId>& sorted_tags, int k);

/// The program's final top-k must equal the brute force: same items, same
/// order, same worst-case scores.
std::string CheckTopK(const std::vector<ScoredItem>& got,
                      const std::vector<ScoredItem>& expected);

/// Brute-force ideal network of `owner`: every other user with positive
/// overlap, ranked by overlap descending then id ascending, truncated to s.
std::vector<UserId> BruteForceTopS(UserId owner, const ProfileHistory& history,
                                   int s);

/// Share of `ideal` that `network` holds (1.0 when ideal is empty).
double SuccessRatio(const NetworkView& network,
                    const std::vector<UserId>& ideal);

/// An updated user's current snapshot must equal the sorted union of her
/// original actions and every batch's new actions.
std::string CheckUpdatedSnapshot(std::span<const ActionKey> got,
                                 const Actions& original,
                                 const std::vector<Actions>& batches);

/// Save -> load into a fresh system -> save must reproduce the snapshot
/// byte for byte.
std::string CheckCheckpointRoundTrip(const std::vector<std::uint8_t>& first,
                                     const std::vector<std::uint8_t>& second);

}  // namespace p3q::perfbench

#endif  // P3Q_PERFBENCH_CHECKS_H_
