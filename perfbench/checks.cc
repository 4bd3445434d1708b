#include "checks.h"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace p3q::perfbench {

const Actions* ProfileHistory::At(UserId u, std::uint32_t version) const {
  if (u >= versions.size() || version >= versions[u].size()) return nullptr;
  return &versions[u][version];
}

std::size_t CountCommon(std::span<const ActionKey> a,
                        std::span<const ActionKey> b) {
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

Actions SortedUnion(const Actions& a, const Actions& b) {
  Actions out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Actions Canonical(Actions actions) {
  std::sort(actions.begin(), actions.end());
  actions.erase(std::unique(actions.begin(), actions.end()), actions.end());
  return actions;
}

namespace {

std::string Where(const NetworkView& network, std::size_t pos) {
  return "network of " + std::to_string(network.owner) + ", entry " +
         std::to_string(pos) + " (user " +
         std::to_string(network.entries[pos].user) + "): ";
}

}  // namespace

std::string CheckNetwork(const NetworkView& network,
                         const ProfileHistory& history) {
  const auto& entries = network.entries;
  if (entries.size() > static_cast<std::size_t>(network.s)) {
    return "network of " + std::to_string(network.owner) + " holds " +
           std::to_string(entries.size()) + " entries, capacity " +
           std::to_string(network.s);
  }
  if (network.owner >= history.NumUsers()) return "unknown owner";
  const std::size_t top_c =
      std::min(entries.size(), static_cast<std::size_t>(network.c));
  std::unordered_set<UserId> seen;
  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    const EntryView& e = entries[pos];
    if (e.user == network.owner) return Where(network, pos) + "owner listed";
    if (!seen.insert(e.user).second) return Where(network, pos) + "duplicate";
    if (pos > 0) {
      const EntryView& prev = entries[pos - 1];
      if (prev.score < e.score ||
          (prev.score == e.score && prev.user > e.user)) {
        return Where(network, pos) + "out of order";
      }
    }
    const Actions* theirs = history.At(e.user, e.digest_version);
    if (theirs == nullptr) {
      return Where(network, pos) + "digest version " +
             std::to_string(e.digest_version) + " was never published";
    }
    bool score_matches = false;
    for (const Actions& mine : history.versions[network.owner]) {
      if (CountCommon(mine, *theirs) == e.score) {
        score_matches = true;
        break;
      }
    }
    if (!score_matches) {
      return Where(network, pos) + "score " + std::to_string(e.score) +
             " != overlap " +
             std::to_string(CountCommon(history.Current(network.owner),
                                        *theirs));
    }
    if (e.has_replica != (pos < top_c)) {
      return Where(network, pos) +
             (e.has_replica ? "replica outside the top-c"
                            : "top-c entry without a replica");
    }
    if (e.has_replica && e.replica_version != e.digest_version) {
      return Where(network, pos) + "replica version " +
             std::to_string(e.replica_version) + " != digest version " +
             std::to_string(e.digest_version);
    }
  }
  return "";
}

std::vector<std::uint64_t> ScoreVector(const NetworkView& network) {
  std::vector<std::uint64_t> scores;
  scores.reserve(network.entries.size());
  for (const EntryView& e : network.entries) scores.push_back(e.score);
  return scores;
}

std::string CheckMonotone(const std::vector<std::uint64_t>& before,
                          const std::vector<std::uint64_t>& after) {
  if (after.size() < before.size()) {
    return "network shrank from " + std::to_string(before.size()) + " to " +
           std::to_string(after.size()) + " entries";
  }
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] < before[i]) {
      return "rank " + std::to_string(i) + " score fell from " +
             std::to_string(before[i]) + " to " + std::to_string(after[i]);
    }
  }
  return "";
}

std::vector<ScoredItem> BruteForceTopK(
    const std::vector<const Actions*>& profiles,
    const std::vector<TagId>& sorted_tags, int k) {
  std::map<ItemId, std::uint64_t> scores;
  for (const Actions* profile : profiles) {
    for (ActionKey a : *profile) {
      if (std::binary_search(sorted_tags.begin(), sorted_tags.end(),
                             ActionTag(a))) {
        ++scores[ActionItem(a)];
      }
    }
  }
  std::vector<ScoredItem> ranked(scores.begin(), scores.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const ScoredItem& x, const ScoredItem& y) {
              return x.second != y.second ? x.second > y.second
                                          : x.first < y.first;
            });
  if (ranked.size() > static_cast<std::size_t>(k)) ranked.resize(k);
  return ranked;
}

std::string CheckTopK(const std::vector<ScoredItem>& got,
                      const std::vector<ScoredItem>& expected) {
  if (got.size() != expected.size()) {
    return "top-k holds " + std::to_string(got.size()) + " items, expected " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) {
      return "rank " + std::to_string(i) + ": got item " +
             std::to_string(got[i].first) + " score " +
             std::to_string(got[i].second) + ", expected item " +
             std::to_string(expected[i].first) + " score " +
             std::to_string(expected[i].second);
    }
  }
  return "";
}

std::vector<UserId> BruteForceTopS(UserId owner, const ProfileHistory& history,
                                   int s) {
  std::vector<std::pair<std::size_t, UserId>> scored;
  const Actions& mine = history.Current(owner);
  for (UserId v = 0; v < history.NumUsers(); ++v) {
    if (v == owner) continue;
    const std::size_t overlap = CountCommon(mine, history.Current(v));
    if (overlap > 0) scored.emplace_back(overlap, v);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  if (scored.size() > static_cast<std::size_t>(s)) scored.resize(s);
  std::vector<UserId> ideal;
  ideal.reserve(scored.size());
  for (const auto& [overlap, v] : scored) ideal.push_back(v);
  return ideal;
}

double SuccessRatio(const NetworkView& network,
                    const std::vector<UserId>& ideal) {
  if (ideal.empty()) return 1.0;
  std::unordered_set<UserId> held;
  for (const EntryView& e : network.entries) held.insert(e.user);
  std::size_t good = 0;
  for (UserId v : ideal) good += held.count(v);
  return static_cast<double>(good) / static_cast<double>(ideal.size());
}

std::string CheckUpdatedSnapshot(std::span<const ActionKey> got,
                                 const Actions& original,
                                 const std::vector<Actions>& batches) {
  Actions expected = original;
  for (const Actions& batch : batches) {
    expected = SortedUnion(expected, Canonical(batch));
  }
  if (got.size() != expected.size()) {
    return "snapshot holds " + std::to_string(got.size()) +
           " actions, expected " + std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) {
      return "snapshot action " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckCheckpointRoundTrip(const std::vector<std::uint8_t>& first,
                                     const std::vector<std::uint8_t>& second) {
  if (first.size() != second.size()) {
    return "re-saved checkpoint is " + std::to_string(second.size()) +
           " bytes, first save " + std::to_string(first.size());
  }
  const auto diff = std::mismatch(first.begin(), first.end(), second.begin());
  if (diff.first != first.end()) {
    return "re-saved checkpoint differs at byte " +
           std::to_string(diff.first - first.begin());
  }
  return "";
}

}  // namespace p3q::perfbench
