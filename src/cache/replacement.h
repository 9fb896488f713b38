#ifndef CHUNKCACHE_CACHE_REPLACEMENT_H_
#define CHUNKCACHE_CACHE_REPLACEMENT_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace chunkcache::cache {

/// Victim-selection policy for a cache of variable-benefit entries. The
/// cache identifies entries by opaque handles; the policy tracks access
/// recency and/or benefit weights and nominates eviction victims.
///
/// Implementations provided:
///  - LruPolicy:          exact LRU (list-based).
///  - ClockPolicy:        CLOCK, the LRU approximation the paper uses.
///  - BenefitClockPolicy: the paper's benefit-weighted CLOCK (Section 5.4).
///  - ArcPolicy:          ARC [Megiddo & Modha FAST'03] — two live lists
///    (recency T1, frequency T2) plus two ghost lists (B1, B2) of recently
///    evicted keys; ghost hits adapt the recency/frequency split online.
///  - LfuAgingPolicy:     LFU with periodic exponential aging (frequency
///    halves every epoch), optionally weighting scores by entry benefit.
///  - SlruPolicy:         segmented LRU — probationary + protected
///    segments; only a re-accessed entry earns protection.
///  - TwoQPolicy:         2Q [Johnson & Shasha VLDB'94] — A1in FIFO for
///    first-timers, Am LRU for proven-hot entries, A1out ghost keys.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Registers a new entry with the given benefit.
  virtual void OnInsert(uint64_t handle, double benefit) = 0;

  /// Keyed insert: `key_id` is a stable identity that survives
  /// re-insertion of the same cache key under a fresh handle (the chunk
  /// cache mints a new handle per insert). Policies with ghost lists
  /// (ARC, 2Q) override this so an entry evicted and re-fetched is
  /// recognized; the default forwards to OnInsert.
  virtual void OnInsertKeyed(uint64_t handle, uint64_t key_id,
                             double benefit) {
    (void)key_id;
    OnInsert(handle, benefit);
  }

  /// Notes a cache hit on `handle`.
  virtual void OnAccess(uint64_t handle) = 0;

  /// Removes `handle` from the policy's books (entry evicted or dropped).
  virtual void OnErase(uint64_t handle) = 0;

  /// Nominates an eviction victim to make room for an incoming entry of
  /// benefit `incoming_benefit`. Returns nullopt only when empty.
  virtual std::optional<uint64_t> PickVictim(double incoming_benefit) = 0;

  virtual std::string name() const = 0;
  virtual size_t size() const = 0;
};

/// Exact LRU via an intrusive list.
class LruPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "lru"; }
  size_t size() const override { return map_.size(); }

 private:
  std::list<uint64_t> order_;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
};

/// Shared machinery for the two CLOCK variants: a circular list of live
/// slots with a sweeping arm. Insert, erase and one arm step are O(1).
///
/// Determinism: a new entry always enters the ring *just behind* the arm,
/// so it is examined last in the current sweep, wherever the arm sits.
/// Erasing the slot under the arm moves the arm to its successor, so the
/// circular sweep order of the remaining entries never changes.
class ClockBase : public ReplacementPolicy {
 public:
  ClockBase() = default;
  // The arm is an iterator into ring_; a copy would point into the source.
  ClockBase(const ClockBase&) = delete;
  ClockBase& operator=(const ClockBase&) = delete;

  void OnInsert(uint64_t handle, double benefit) override;
  void OnErase(uint64_t handle) override;
  size_t size() const override { return map_.size(); }

 protected:
  struct Slot {
    uint64_t handle = 0;
    double weight = 0;   // reference bit (0/1) for plain CLOCK
    double benefit = 0;  // weight at insert; benefit-CLOCK resets to it
  };
  using Ring = std::list<Slot>;

  /// The slot under the arm, stepping the arm past it; nullptr when the
  /// ring is empty. The arm at ring_.end() stands for ring_.begin().
  Slot* Advance();

  Ring ring_;
  std::unordered_map<uint64_t, Ring::iterator> map_;  // handle -> slot
  Ring::iterator arm_ = ring_.end();
};

/// Plain CLOCK (second chance): weight is a 0/1 reference bit.
class ClockPolicy final : public ClockBase {
 public:
  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "clock"; }
};

/// The paper's benefit-weighted CLOCK (Section 5.4).
class BenefitClockPolicy final : public ClockBase {
 public:
  void OnAccess(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "benefit-clock"; }
};

/// ARC: live T1 (seen once) / T2 (seen twice+) lists plus ghost B1/B2 key
/// lists. A miss whose key sits in a ghost list re-enters as frequent (T2)
/// and moves the adaptive target p toward the list that ghost-hit: B1 hits
/// grow the recency share, B2 hits grow the frequency share. The policy
/// does not know the cache's byte budget, so its notion of capacity c is
/// the live-entry high-water mark; each ghost list is bounded by c.
class ArcPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(uint64_t handle, double benefit) override {
    OnInsertKeyed(handle, handle, benefit);
  }
  void OnInsertKeyed(uint64_t handle, uint64_t key_id,
                     double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "arc"; }
  size_t size() const override { return map_.size(); }

  double target_p() const { return p_; }
  size_t ghost_size() const { return ghosts_.size(); }

 private:
  enum Where : uint8_t { kT1, kT2 };
  struct Pos {
    Where where;
    std::list<uint64_t>::iterator it;
    uint64_t key_id;
  };
  void TrimGhosts();
  void EraseGhost(uint64_t key_id);

  std::list<uint64_t> t1_, t2_;  // handles; front = MRU
  std::list<uint64_t> b1_, b2_;  // ghost key ids; front = MRU
  std::unordered_map<uint64_t, Pos> map_;  // live handles
  // ghost key -> (which B list (kT1 => B1), iterator)
  std::unordered_map<uint64_t, std::pair<Where, std::list<uint64_t>::iterator>>
      ghosts_;
  double p_ = 0;   // target size of T1 (recency share)
  size_t c_ = 1;   // live-entry high-water mark (capacity estimate)
};

/// LFU with periodic exponential aging: an entry's frequency halves every
/// `age_period` policy events, so stale popularity decays instead of
/// pinning dead entries forever (the classic LFU failure mode). Aging is
/// lazy — each entry stores the epoch of its last touch and its count is
/// scaled by 2^-(age) on read. With `weight_by_benefit`, the eviction
/// score is frequency x benefit, so cheap-to-recompute entries go first
/// among equally popular ones. Victim selection scans live entries
/// (O(n)); ties break on insertion sequence, so the choice is fully
/// deterministic for a given operation trace.
class LfuAgingPolicy final : public ReplacementPolicy {
 public:
  explicit LfuAgingPolicy(bool weight_by_benefit, uint32_t age_period = 512)
      : weight_by_benefit_(weight_by_benefit), age_period_(age_period) {}

  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override {
    return weight_by_benefit_ ? "benefit-lfu-aging" : "lfu-aging";
  }
  size_t size() const override { return map_.size(); }

 private:
  struct Entry {
    double freq = 0;      // count as of `epoch`
    uint64_t epoch = 0;   // last touch epoch
    double benefit = 1;
    uint64_t seq = 0;     // insertion sequence, deterministic tie-break
  };
  double Effective(const Entry& e) const;
  void Tick();

  const bool weight_by_benefit_;
  const uint32_t age_period_;
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t epoch_ = 0;
  uint64_t ops_ = 0;
  uint64_t seq_ = 0;
};

/// Segmented LRU: new entries enter a probationary segment; a hit promotes
/// to the protected segment (capped at ~4/5 of live entries, overflow
/// demotes the protected LRU back to probationary MRU). Victims come from
/// the probationary tail, so scan floods never displace proven-hot
/// entries.
class SlruPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "slru"; }
  size_t size() const override { return map_.size(); }

 private:
  struct Pos {
    bool prot;
    std::list<uint64_t>::iterator it;
  };
  void EnforceProtectedCap();

  std::list<uint64_t> prob_, prot_;  // front = MRU
  std::unordered_map<uint64_t, Pos> map_;
};

/// 2Q: first-time entries queue in A1in (FIFO — hits there do NOT refresh,
/// filtering one-shot scans); an entry whose key ghost-hits A1out re-enters
/// the real LRU Am. Victims drain A1in while it exceeds ~1/4 of live
/// entries, else the Am tail.
class TwoQPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(uint64_t handle, double benefit) override {
    OnInsertKeyed(handle, handle, benefit);
  }
  void OnInsertKeyed(uint64_t handle, uint64_t key_id,
                     double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "2q"; }
  size_t size() const override { return map_.size(); }

  size_t ghost_size() const { return ghosts_.size(); }

 private:
  enum Where : uint8_t { kA1in, kAm };
  struct Pos {
    Where where;
    std::list<uint64_t>::iterator it;
    uint64_t key_id;
  };
  void TrimGhosts();

  std::list<uint64_t> a1in_;  // handles; front = newest (FIFO)
  std::list<uint64_t> am_;    // handles; front = MRU
  std::list<uint64_t> a1out_; // ghost key ids; front = newest
  std::unordered_map<uint64_t, Pos> map_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> ghosts_;
  size_t c_ = 1;  // live-entry high-water mark
};

/// All policy names MakePolicy accepts, in canonical order. The benefit-*
/// variants fold entry benefit into victim selection; the rest are
/// benefit-blind.
const std::vector<std::string>& KnownPolicyNames();

/// Factory by name for experiment knobs. Returns nullptr for unknown
/// names; callers that cannot proceed without a policy should use
/// MakePolicyOrDie for a message listing the valid names.
std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name);

/// MakePolicy, but aborts with a clear message naming every valid policy
/// when `name` is unknown — never silently substitutes a default.
std::unique_ptr<ReplacementPolicy> MakePolicyOrDie(const std::string& name);

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_REPLACEMENT_H_
