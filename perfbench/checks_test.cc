// Tests of the benchmark's checkers: each accepts a right answer and
// rejects a deliberately wrong one. Wrong answers are made by perturbing
// copies of right ones; nothing here touches the program under test.
#include <gtest/gtest.h>

#include "checks.h"

namespace p3q::perfbench {
namespace {

/// Four users; user 0 overlaps users 1, 2 and 3 by 3, 2 and 1 actions.
ProfileHistory SmallHistory() {
  ProfileHistory h;
  h.versions = {
      {{MakeAction(1, 1), MakeAction(2, 1), MakeAction(3, 1), MakeAction(4, 1)}},
      {{MakeAction(1, 1), MakeAction(2, 1), MakeAction(3, 1), MakeAction(9, 9)}},
      {{MakeAction(1, 1), MakeAction(2, 1)}},
      {{MakeAction(4, 1), MakeAction(7, 7)}},
  };
  return h;
}

/// The right network of user 0 with s = 3, c = 2.
NetworkView GoodNetwork() {
  NetworkView n;
  n.owner = 0;
  n.s = 3;
  n.c = 2;
  n.entries = {{1, 3, 0, true, 0}, {2, 2, 0, true, 0}, {3, 1, 0, false, 0}};
  return n;
}

TEST(CountCommonTest, MergesSortedLists) {
  const Actions a = {1, 3, 5, 7};
  const Actions b = {2, 3, 4, 7, 9};
  EXPECT_EQ(CountCommon(a, b), 2u);
  EXPECT_EQ(CountCommon(a, {}), 0u);
}

TEST(CheckNetworkTest, AcceptsTheRightNetwork) {
  EXPECT_EQ(CheckNetwork(GoodNetwork(), SmallHistory()), "");
}

TEST(CheckNetworkTest, RejectsOffByOneScore) {
  NetworkView n = GoodNetwork();
  n.entries[2].score += 1;
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
  n = GoodNetwork();
  n.entries[0].score -= 1;
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
}

TEST(CheckNetworkTest, RejectsMisorderedEntries) {
  NetworkView n = GoodNetwork();
  std::swap(n.entries[1], n.entries[2]);
  n.entries[1].has_replica = true;  // keep the replica rule satisfied
  n.entries[2].has_replica = false;
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
}

TEST(CheckNetworkTest, RejectsTieBrokenByDescendingId) {
  ProfileHistory h = SmallHistory();
  h.versions[3][0] = {MakeAction(1, 1), MakeAction(2, 1)};  // ties user 2
  NetworkView n = GoodNetwork();
  n.entries[1] = {3, 2, 0, true, 0};
  n.entries[2] = {2, 2, 0, false, 0};
  EXPECT_NE(CheckNetwork(n, h), "");
  std::swap(n.entries[1].user, n.entries[2].user);
  EXPECT_EQ(CheckNetwork(n, h), "");
}

TEST(CheckNetworkTest, RejectsOversizedNetwork) {
  NetworkView n = GoodNetwork();
  n.s = 2;
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
}

TEST(CheckNetworkTest, RejectsOwnerAndDuplicates) {
  NetworkView n = GoodNetwork();
  n.entries[2] = {0, 1, 0, false, 0};
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
  n = GoodNetwork();
  n.entries[2] = n.entries[1];
  n.entries[2].has_replica = false;
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
}

TEST(CheckNetworkTest, RejectsMisplacedOrStaleReplicas) {
  NetworkView n = GoodNetwork();
  n.entries[1].has_replica = false;  // top-c entry without a replica
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
  n = GoodNetwork();
  n.entries[2].has_replica = true;  // replica past the top-c
  EXPECT_NE(CheckNetwork(n, SmallHistory()), "");
  ProfileHistory h = SmallHistory();
  h.versions[1].push_back(h.versions[1][0]);  // version 1 exists
  n = GoodNetwork();
  n.entries[0].digest_version = 1;  // replica still at version 0
  EXPECT_NE(CheckNetwork(n, h), "");
}

TEST(CheckNetworkTest, ScoresAgainstTheHeldDigestVersion) {
  ProfileHistory h = SmallHistory();
  Actions grown = h.versions[3][0];
  grown.push_back(MakeAction(8, 1));
  grown.insert(grown.begin(), MakeAction(1, 1));
  h.versions[3].push_back(grown);  // version 1 overlaps user 0 by 2
  NetworkView n = GoodNetwork();
  EXPECT_EQ(CheckNetwork(n, h), "");  // digest still at version 0
  n.entries[2].digest_version = 1;
  EXPECT_NE(CheckNetwork(n, h), "");  // score 1 is wrong at version 1
  n.entries[2].score = 2;
  n.entries[2].user = 3;
  std::swap(n.entries[1], n.entries[2]);  // 3 and 2 tie at 2: id order
  n.entries[1].has_replica = true;
  n.entries[2].has_replica = false;
  EXPECT_NE(CheckNetwork(n, h), "");
  std::swap(n.entries[1], n.entries[2]);
  n.entries[1].has_replica = true;
  n.entries[2].has_replica = false;
  EXPECT_EQ(CheckNetwork(n, h), "");
}

TEST(CheckNetworkTest, AcceptsScoreAgainstAnEarlierOwnVersion) {
  ProfileHistory h = SmallHistory();
  Actions grown = h.versions[0][0];
  grown.push_back(MakeAction(7, 7));  // now overlaps user 3 by 2
  h.versions[0].push_back(grown);
  EXPECT_EQ(CheckNetwork(GoodNetwork(), h), "");  // scored before the update
  NetworkView n = GoodNetwork();
  n.entries[2].score = 3;  // matches no version of the owner
  EXPECT_NE(CheckNetwork(n, h), "");
}

TEST(CheckMonotoneTest, RejectsShrinkingOrFallingScores) {
  EXPECT_EQ(CheckMonotone({5, 3}, {5, 4, 1}), "");
  EXPECT_NE(CheckMonotone({5, 3}, {5, 2, 1}), "");
  EXPECT_NE(CheckMonotone({5, 3}, {5}), "");
}

TEST(BruteForceTopKTest, ScoresTagMatchesAndBreaksTiesByItem) {
  const Actions a = {MakeAction(10, 1), MakeAction(10, 2), MakeAction(20, 1),
                     MakeAction(30, 5)};
  const Actions b = {MakeAction(20, 2), MakeAction(40, 1)};
  const auto top = BruteForceTopK({&a, &b}, {1, 2}, 3);
  const std::vector<ScoredItem> expected = {{10, 2}, {20, 2}, {40, 1}};
  EXPECT_EQ(top, expected);
  EXPECT_EQ(BruteForceTopK({&a, &b}, {1, 2}, 1).size(), 1u);
  EXPECT_TRUE(BruteForceTopK({&a}, {9}, 3).empty());
}

TEST(CheckTopKTest, RejectsSwappedItemOrWrongScore) {
  const std::vector<ScoredItem> expected = {{10, 2}, {20, 2}, {40, 1}};
  EXPECT_EQ(CheckTopK(expected, expected), "");
  std::vector<ScoredItem> got = expected;
  got[2].first = 41;  // a different item in the top-k
  EXPECT_NE(CheckTopK(got, expected), "");
  got = expected;
  std::swap(got[0], got[1]);  // same items, wrong tie order
  EXPECT_NE(CheckTopK(got, expected), "");
  got = expected;
  got[1].second = 1;  // worst-case score short of the exact one
  EXPECT_NE(CheckTopK(got, expected), "");
  got.pop_back();
  EXPECT_NE(CheckTopK(got, expected), "");
}

TEST(BruteForceTopSTest, RanksByOverlapThenId) {
  const ProfileHistory h = SmallHistory();
  EXPECT_EQ(BruteForceTopS(0, h, 3), (std::vector<UserId>{1, 2, 3}));
  EXPECT_EQ(BruteForceTopS(0, h, 2), (std::vector<UserId>{1, 2}));
  EXPECT_DOUBLE_EQ(SuccessRatio(GoodNetwork(), BruteForceTopS(0, h, 3)), 1.0);
  NetworkView n = GoodNetwork();
  n.entries.pop_back();
  EXPECT_NEAR(SuccessRatio(n, BruteForceTopS(0, h, 3)), 2.0 / 3.0, 1e-12);
}

TEST(CheckUpdatedSnapshotTest, RejectsAnythingButTheSortedUnion) {
  const Actions original = {1, 4, 9};
  const std::vector<Actions> batches = {{4, 2}, {12, 2}};
  const Actions right = {1, 2, 4, 9, 12};
  EXPECT_EQ(CheckUpdatedSnapshot(right, original, batches), "");
  Actions wrong = right;
  wrong.pop_back();  // second batch lost
  EXPECT_NE(CheckUpdatedSnapshot(wrong, original, batches), "");
  wrong = right;
  wrong[1] = 3;
  EXPECT_NE(CheckUpdatedSnapshot(wrong, original, batches), "");
}

TEST(CheckCheckpointRoundTripTest, RejectsOneFlippedByte) {
  std::vector<std::uint8_t> first(4096);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i * 31 % 251;
  EXPECT_EQ(CheckCheckpointRoundTrip(first, first), "");
  std::vector<std::uint8_t> second = first;
  second[1234] ^= 0x10;
  EXPECT_NE(CheckCheckpointRoundTrip(first, second), "");
  second = first;
  second.push_back(0);
  EXPECT_NE(CheckCheckpointRoundTrip(first, second), "");
}

}  // namespace
}  // namespace p3q::perfbench
