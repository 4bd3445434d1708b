// View entries exchanged by the gossip layers.
//
// A DigestInfo is what actually travels in gossip messages: a user id plus
// the Bloom digest of (a version of) her profile. In the simulator the
// digest is carried as the immutable profile snapshot it was computed from —
// protocol code only ever reads the snapshot's digest/items through the
// helpers below, and wire costs are accounted as digest bytes, so the
// semantics are exactly "a Bloom filter travelled", while exactness of the
// overlap check is emulated including the filter's false-positive rate.
#ifndef P3Q_GOSSIP_VIEW_H_
#define P3Q_GOSSIP_VIEW_H_

#include <cmath>
#include <cstdint>

#include "common/random.h"
#include "profile/profile.h"

namespace p3q {

/// A (user, profile digest) descriptor as carried by gossip messages.
struct DigestInfo {
  UserId user = kInvalidUser;
  ProfilePtr snapshot;  ///< the profile version the digest was built from

  std::uint32_t version() const { return snapshot->version(); }
  const BloomFilter& digest() const { return snapshot->digest(); }
  /// The digest's estimated false-positive rate (precomputed per snapshot).
  double digest_fpp() const { return snapshot->DigestFpp(); }

  /// Wire size of the descriptor: digest bits + the user id.
  std::size_t WireBytes() const {
    return snapshot->digest().SizeBytes() + kBytesPerUserId;
  }
};

/// Simulates the receiver-side Bloom check "does Digest(other) contain at
/// least one item tagged by me?" — true on a genuine common item, and true
/// with the digest's false-positive probability otherwise (testing n items
/// against an FPP-f filter passes spuriously with probability 1-(1-f)^n).
inline bool DigestIndicatesCommonItem(const Profile& mine,
                                      const DigestInfo& theirs, Rng* rng) {
  if (mine.SharesItemWith(*theirs.snapshot)) return true;
  const double fpp = theirs.digest_fpp();
  const double miss_all =
      std::pow(1.0 - fpp, static_cast<double>(mine.NumItems()));
  return rng->NextBool(1.0 - miss_all);
}

}  // namespace p3q

#endif  // P3Q_GOSSIP_VIEW_H_
