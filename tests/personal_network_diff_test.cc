// Differential test of core/personal_network: the in-place PersonalNetwork
// against the re-sorting oracle (personal_network_oracle.h), driven through
// seeded random sequences of Consider (stale and newer digests, null and
// non-null replicas, ties, zero scores, the owner itself), Remove,
// TouchGossiped, ResetTimestamp and RestoreEntries. After every operation
// both must hold the same entries (user, score, digest, timestamp, replica)
// and have returned the same ConsiderOutcome, and the production network
// must pass CheckInvariants().
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/personal_network.h"
#include "personal_network_oracle.h"
#include "test_util.h"

namespace p3q {
namespace {

constexpr std::uint32_t kVersions = 4;

struct Geometry {
  int s;
  int c;
};

std::string GeometryName(const ::testing::TestParamInfo<Geometry>& info) {
  return "s" + std::to_string(info.param.s) + "_c" +
         std::to_string(info.param.c);
}

std::vector<Geometry> AllGeometries() {
  std::vector<Geometry> out;
  for (const int s : {3, 40, 500}) {
    for (const int c : {0, 1, 10, s}) {
      if (c <= s) out.push_back({s, c});
    }
  }
  return out;
}

/// Every user's snapshots, one per version, shared by both networks so
/// replicas and digests can be compared by identity.
class SnapshotPool {
 public:
  explicit SnapshotPool(std::size_t users) {
    for (UserId u = 0; u < users; ++u) {
      for (std::uint32_t v = 0; v < kVersions; ++v) {
        snapshots_.push_back(test::MakeDisjointSnapshot(
            u, /*num_actions=*/1, v, /*digest_bits=*/64));
      }
    }
  }
  const ProfilePtr& Get(UserId user, std::uint32_t version) const {
    return snapshots_[user * kVersions + version];
  }

 private:
  std::vector<ProfilePtr> snapshots_;
};

void ExpectSameEntries(const std::vector<NetworkEntry>& got,
                       const std::vector<NetworkEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(got[i].user, want[i].user);
    EXPECT_EQ(got[i].score, want[i].score);
    EXPECT_EQ(got[i].digest.user, want[i].digest.user);
    EXPECT_EQ(got[i].digest.snapshot, want[i].digest.snapshot);
    EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    EXPECT_EQ(got[i].stored_profile, want[i].stored_profile);
  }
}

class PersonalNetworkDiffTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(PersonalNetworkDiffTest, MatchesOracleOnRandomOperationSequences) {
  const Geometry g = GetParam();
  // Half again as many candidates as slots, so full networks evict; user 0
  // is the owner and must always be rejected.
  const std::size_t users = static_cast<std::size_t>(g.s) * 3 / 2 + 4;
  const SnapshotPool pool(users);
  const UserId self = 0;
  // Scores drawn from a small range collide often, exercising the id
  // tie-break; 0 must be rejected.
  const std::int64_t max_score = 3 * g.s;
  const int steps = g.s <= 40 ? 4000 : 2500;

  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 1000 + static_cast<std::uint64_t>(g.s * 16 + g.c));
    PersonalNetwork net(self, g.s, g.c);
    test::OraclePersonalNetwork oracle(self, g.s, g.c);
    std::size_t largest = 0;

    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const UserId user = static_cast<UserId>(rng.NextUint64(users));
      const std::uint64_t op = rng.NextUint64(100);
      std::string what;
      if (op < 75) {
        const std::uint64_t score =
            rng.NextBool(0.02) ? 0 : static_cast<std::uint64_t>(
                                         rng.NextInt(1, max_score));
        const auto version = static_cast<std::uint32_t>(
            rng.NextUint64(kVersions));
        const DigestInfo digest{user, pool.Get(user, version)};
        // A replica is never newer than the digest it travels with.
        const ProfilePtr replica =
            rng.NextBool(0.3)
                ? nullptr
                : pool.Get(user, static_cast<std::uint32_t>(
                                     rng.NextUint64(version + 1)));
        what = "Consider";
        const ConsiderOutcome got = net.Consider(user, score, digest, replica);
        const ConsiderOutcome want =
            oracle.Consider(user, score, digest, replica);
        EXPECT_EQ(got.accepted, want.accepted);
        EXPECT_EQ(got.stored_profile, want.stored_profile);
      } else if (op < 83) {
        what = "Remove";
        net.Remove(user);
        oracle.Remove(user);
      } else if (op < 90) {
        what = "TouchGossiped";
        net.TouchGossiped(user);
        oracle.TouchGossiped(user);
      } else if (op < 97) {
        what = "ResetTimestamp";
        net.ResetTimestamp(user);
        oracle.ResetTimestamp(user);
      } else {
        // A checkpoint restore: the current entries in scrambled order,
        // some past the top-c carrying replicas they must lose.
        what = "RestoreEntries";
        std::vector<NetworkEntry> entries = oracle.entries();
        for (NetworkEntry& e : entries) {
          if (!e.HasStoredProfile() && rng.NextBool(0.5)) {
            e.stored_profile = pool.Get(e.user, e.digest.version());
          }
        }
        rng.Shuffle(&entries);
        net.RestoreEntries(entries);
        oracle.RestoreEntries(std::move(entries));
      }
      SCOPED_TRACE(what + " of user " + std::to_string(user));
      const std::string problem = net.CheckInvariants();
      ASSERT_EQ(problem, "");
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameEntries(net.entries(), oracle.entries()));
      EXPECT_EQ(net.Contains(user), oracle.Find(user) != nullptr);
      EXPECT_EQ(net.KnownVersion(user),
                oracle.Find(user) == nullptr
                    ? PersonalNetwork::kNoVersion
                    : oracle.Find(user)->digest.version());
      if (HasFailure()) return;
      largest = std::max(largest, net.size());
    }
    // The sequence must have filled the network, so evictions were tested.
    EXPECT_EQ(largest, static_cast<std::size_t>(g.s));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PersonalNetworkDiffTest,
                         ::testing::ValuesIn(AllGeometries()), GeometryName);

TEST(PersonalNetworkInvariantsTest, ReportsEachViolation) {
  const ProfilePtr v0 = test::MakeDisjointSnapshot(2, 1, 0, 64);
  const ProfilePtr v1 = test::MakeDisjointSnapshot(2, 1, 1, 64);
  auto entry = [](UserId user, std::uint64_t score, const ProfilePtr& digest,
                  const ProfilePtr& replica) {
    NetworkEntry e;
    e.user = user;
    e.score = score;
    e.digest = DigestInfo{user, digest};
    e.stored_profile = replica;
    return e;
  };

  PersonalNetwork net(/*self=*/1, /*s=*/2, /*c=*/1);
  EXPECT_EQ(net.CheckInvariants(), "");

  // RestoreEntries re-sorts and strips replicas past the top-c, so only the
  // violations it does not repair can be built through it.
  net.RestoreEntries({entry(2, 5, v0, nullptr), entry(2, 4, v0, nullptr)});
  EXPECT_NE(net.CheckInvariants().find("twice"), std::string::npos);

  net.RestoreEntries({entry(1, 5, v0, nullptr)});
  EXPECT_NE(net.CheckInvariants().find("owner"), std::string::npos);

  net.RestoreEntries({entry(2, 5, v0, v1)});
  EXPECT_NE(net.CheckInvariants().find("newer than its digest"),
            std::string::npos);

  net.RestoreEntries({entry(2, 5, v0, nullptr), entry(3, 4, v0, nullptr),
                      entry(4, 3, v0, nullptr)});
  EXPECT_NE(net.CheckInvariants().find("s = 2"), std::string::npos);
}

}  // namespace
}  // namespace p3q
