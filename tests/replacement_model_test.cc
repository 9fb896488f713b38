// Model-based randomized testing of the replacement policies: each policy
// is driven through embedded nodes (HandlePolicy, as a cache drives it)
// with a random insert/access/erase/evict trace and checked against
// policy-specific invariants (LRU against an exact reference
// implementation; the CLOCK variants against structural guarantees that
// must hold for any correct implementation, and against a vector ring's
// victim sequence).

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/replacement.h"
#include "common/random.h"
#include "handle_policy.h"

namespace chunkcache::cache {
namespace {

// Exact reference LRU.
class ReferenceLru {
 public:
  void Insert(uint64_t h) {
    order_.push_front(h);
    pos_[h] = order_.begin();
  }
  void Access(uint64_t h) {
    auto it = pos_.find(h);
    if (it == pos_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }
  void Erase(uint64_t h) {
    auto it = pos_.find(h);
    if (it == pos_.end()) return;
    order_.erase(it->second);
    pos_.erase(it);
  }
  std::optional<uint64_t> Victim() const {
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }
  size_t size() const { return pos_.size(); }

 private:
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos_;
};

TEST(ReplacementModelTest, LruMatchesReferenceExactly) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    Random rng(seed);
    HandlePolicy policy(std::make_unique<LruPolicy>());
    ReferenceLru reference;
    std::set<uint64_t> live;
    uint64_t next = 0;
    for (int step = 0; step < 5000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.4 || live.empty()) {
        const uint64_t h = next++;
        policy.OnInsert(h, 1.0);
        reference.Insert(h);
        live.insert(h);
      } else if (roll < 0.6) {
        // Access a random live handle.
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy.OnAccess(*it);
        reference.Access(*it);
      } else if (roll < 0.8) {
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy.OnErase(*it);
        reference.Erase(*it);
        live.erase(it);
      } else {
        const auto got = policy.PickVictim(1.0);
        const auto want = reference.Victim();
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(*got, *want) << "step " << step;
          // Evict it, as the cache would.
          policy.OnErase(*got);
          reference.Erase(*want);
          live.erase(*got);
        }
      }
      ASSERT_EQ(policy.size(), reference.size());
    }
  }
}

// Structural invariants every policy must satisfy under random traces:
// victims are live entries; size bookkeeping is exact; a policy never
// "loses" entries (every live entry is eventually evictable).
class AnyPolicyModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AnyPolicyModelTest, VictimsAreAlwaysLiveAndSizeIsExact) {
  auto policy = std::make_unique<HandlePolicy>(MakePolicy(GetParam()));
  Random rng(99);
  std::set<uint64_t> live;
  uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.45 || live.empty()) {
      const uint64_t h = next++;
      policy->OnInsert(h, 1.0 + rng.NextDouble() * 100);
      live.insert(h);
    } else if (roll < 0.6) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      policy->OnAccess(*it);
    } else if (roll < 0.75) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      policy->OnErase(*it);
      live.erase(it);
    } else {
      auto victim = policy->PickVictim(1.0 + rng.NextDouble() * 10);
      ASSERT_EQ(victim.has_value(), !live.empty()) << "step " << step;
      if (victim) {
        ASSERT_TRUE(live.count(*victim)) << "dead victim at step " << step;
        policy->OnErase(*victim);
        live.erase(*victim);
      }
    }
    ASSERT_EQ(policy->size(), live.size()) << "step " << step;
  }
  // Drain: every remaining entry must be nominated eventually.
  while (!live.empty()) {
    auto victim = policy->PickVictim(1e9);
    ASSERT_TRUE(victim.has_value());
    ASSERT_TRUE(live.count(*victim));
    policy->OnErase(*victim);
    live.erase(*victim);
  }
  EXPECT_FALSE(policy->PickVictim(1.0).has_value());
}

INSTANTIATE_TEST_SUITE_P(Policies, AnyPolicyModelTest,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(MakePolicyTest, KnownNamesConstructAndUnknownIsRejected) {
  EXPECT_EQ(KnownPolicyNames(),
            (std::vector<std::string>{"lru", "clock", "benefit-clock"}));
  for (const std::string& name : KnownPolicyNames()) {
    EXPECT_EQ(MakePolicy(name)->name(), name);
  }
  // A removed policy aborts with the valid set, never a default. The
  // threadsafe style re-executes the binary for the child instead of
  // forking a process that a sanitizer runtime may have made threaded.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(MakePolicy("arc"),
               "valid policies: lru, clock, benefit-clock");
}

// Reference CLOCK: a vector ring with an O(n) insert just behind the arm
// and tombstoned erases, the straightforward form of both CLOCK variants.
// The O(1) list ring must pick the same victims on every trace.
class ReferenceClock {
 public:
  explicit ReferenceClock(bool benefit_weighted)
      : benefit_weighted_(benefit_weighted) {}

  void Insert(uint64_t h, double benefit) {
    const double w = benefit_weighted_ ? benefit : 1.0;
    const Slot slot{h, w, w, true};
    if (arm_ == 0 || arm_ >= ring_.size()) {
      index_[h] = ring_.size();
      ring_.push_back(slot);
      return;
    }
    ring_.insert(ring_.begin() + static_cast<ptrdiff_t>(arm_), slot);
    for (auto& [other, idx] : index_) {
      if (idx >= arm_) ++idx;
    }
    index_[h] = arm_++;
  }
  void Access(uint64_t h) {
    auto it = index_.find(h);
    if (it != index_.end()) ring_[it->second].weight = ring_[it->second].benefit;
  }
  void Erase(uint64_t h) {
    auto it = index_.find(h);
    if (it == index_.end()) return;
    ring_[it->second].alive = false;
    index_.erase(it);
  }
  std::optional<uint64_t> Victim(double incoming) {
    if (index_.empty()) return std::nullopt;
    if (!benefit_weighted_) {
      while (true) {
        Slot& s = Next();
        if (s.weight <= 0) return s.handle;
        s.weight = 0;
      }
    }
    std::optional<uint64_t> min_handle;
    double min_weight = 0;
    for (size_t step = 0; step < 4 * index_.size() + 4; ++step) {
      Slot& s = Next();
      if (s.weight <= 0) return s.handle;
      if (!min_handle || s.weight < min_weight) {
        min_handle = s.handle;
        min_weight = s.weight;
      }
      s.weight -= incoming;
    }
    return min_handle;
  }
  size_t size() const { return index_.size(); }

 private:
  struct Slot {
    uint64_t handle;
    double weight;
    double benefit;
    bool alive;
  };
  // The live slot under the arm; the arm steps past it.
  Slot& Next() {
    while (true) {
      if (arm_ >= ring_.size()) arm_ = 0;
      Slot& s = ring_[arm_++];
      if (s.alive) return s;
    }
  }

  const bool benefit_weighted_;
  std::vector<Slot> ring_;
  std::unordered_map<uint64_t, size_t> index_;
  size_t arm_ = 0;
};

class ClockReferenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClockReferenceTest, VictimSequenceMatchesVectorRing) {
  for (uint64_t seed : {11, 22, 33}) {
    auto policy = std::make_unique<HandlePolicy>(MakePolicy(GetParam()));
    ReferenceClock reference(GetParam() == "benefit-clock");
    Random rng(seed);
    std::set<uint64_t> live;
    uint64_t next = 0;
    for (int step = 0; step < 8000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.4 || live.empty()) {
        const double benefit = 1.0 + rng.NextDouble() * 50;
        policy->OnInsert(next, benefit);
        reference.Insert(next, benefit);
        live.insert(next);
        ++next;
      } else if (roll < 0.55) {
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy->OnAccess(*it);
        reference.Access(*it);
      } else if (roll < 0.7) {
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy->OnErase(*it);
        reference.Erase(*it);
        live.erase(it);
      } else {
        const double incoming = 1.0 + rng.NextDouble() * 10;
        const auto got = policy->PickVictim(incoming);
        const auto want = reference.Victim(incoming);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(*got, *want) << "seed " << seed << " step " << step;
          policy->OnErase(*got);
          reference.Erase(*want);
          live.erase(*got);
        }
      }
      ASSERT_EQ(policy->size(), reference.size());
      ASSERT_EQ(policy->size(), live.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, ClockReferenceTest,
                         ::testing::Values(std::string("clock"),
                                           std::string("benefit-clock")),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Behavioral check: under a scan-like trace (insert many once-used
// entries), benefit-clock retains high-benefit entries far longer than
// LRU does.
TEST(ReplacementModelTest, BenefitClockShieldsExpensiveEntries) {
  auto run = [](const char* name) {
    auto policy = std::make_unique<HandlePolicy>(MakePolicy(name));
    // Two expensive entries among a stream of cheap ones; cache holds 10.
    std::set<uint64_t> live;
    uint64_t next = 0;
    auto insert = [&](double benefit) {
      while (live.size() >= 10) {
        auto v = policy->PickVictim(benefit);
        policy->OnErase(*v);
        live.erase(*v);
      }
      policy->OnInsert(next, benefit);
      live.insert(next);
      ++next;
    };
    insert(500.0);
    insert(500.0);
    const uint64_t expensive_a = 0, expensive_b = 1;
    for (int i = 0; i < 200; ++i) insert(1.0);
    return live.count(expensive_a) + live.count(expensive_b);
  };
  EXPECT_EQ(run("benefit-clock"), 2u);  // both survived the scan
  EXPECT_EQ(run("lru"), 0u);            // LRU flushed them
}

}  // namespace
}  // namespace chunkcache::cache
