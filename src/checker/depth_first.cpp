#include "src/checker/depth_first.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/util/thread_pool.hpp"

namespace satproof::checker {

namespace {

/// Rounds that plan fewer clauses are built on the calling thread: waking
/// the lanes would cost more than they save.
constexpr std::size_t kMinParallelRound = 256;

/// How far (in resolve sources dealt) a lane may run ahead of the least
/// loaded one and still take the next link of a chain it holds.
constexpr std::size_t kAffinitySlack = 4096;

/// Pause iterations a lane spins on an unpublished source before it
/// blocks, so that oversubscribed runs do not burn cores.
constexpr int kSpinsBeforeBlock = 4096;

/// Slot values besides null (unclaimed) and a published block.
const Lit kSentinels[3] = {};
const Lit* const kBuilding = &kSentinels[0];  ///< a lane is building it
const Lit* const kWaiting = &kSentinels[1];   ///< and another waits for it
const Lit* const kFailed = &kSentinels[2];    ///< it or a source failed

/// A clause's planned_ mark.
enum : std::uint8_t {
  kUnplanned = 0,
  kThisRound = 1,  ///< in the round being scheduled
  kPlanned = 2,    ///< in a scheduled round
};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class DepthFirstChecker {
 public:
  DepthFirstChecker(const Formula& f, trace::TraceReader& reader,
                    const DepthFirstOptions& options, CheckMemory& memory)
      : formula_(&f),
        canonical_(f),
        reader_(&reader),
        memory_(&memory),
        level0_(memory.level0),
        derivations_(memory.derivations),
        num_original_(reader.num_original()),
        observer_(options.observer),
        planned_(memory.planned),
        round_(memory.round),
        originals_(memory.originals),
        height_(memory.height),
        consumer_(memory.consumer),
        lane_hint_(memory.lane_hint),
        order_(memory.order) {
    level0_.reset(reader.num_vars());
    derivations_.reset(num_original_);
    unsigned jobs = options.jobs;
    if (jobs == 0) jobs = std::thread::hardware_concurrency();
    jobs = std::max(jobs, 1u);
    lanes_.reserve(jobs);
    for (unsigned l = 0; l < jobs; ++l) lanes_.emplace_back(memory.lane(l));
  }

  CheckResult run(bool collect_core) {
    CheckResult result;
    try {
      check_header(*formula_, reader_->num_vars(), num_original_);
      const ClauseId final_id =
          load_full_trace(*reader_, derivations_, level0_, mem_, stats_);
      {
        obs::Span span("index");
        const std::size_t limit = derivations_.id_limit();
        slots_ = memory_->slots(limit);
        planned_.assign(limit, kUnplanned);
        if (lanes_.size() > 1) {
          height_.assign(limit, 0);
          consumer_.assign(limit, 0);
          lane_hint_.assign(limit, 0);
        }
        lanes_[0].chain.reserve_vars(level0_.num_vars());
      }
      build_round(final_id, {});
      obs::Span final_span("final_derivation");
      // Every fetch but the first (of final_id) follows before_fetch, so
      // every fetched clause is planned.
      const ClauseFetcher fetch = [this](ClauseId id) { return built(id); };
      // A fetch of an unbuilt antecedent builds the cones of every
      // antecedent still pending as well, in one round.
      const PendingHook before_fetch =
          [this](ClauseId next, std::span<const std::uint64_t> pending) {
            if (!planned(next)) build_round(next, pending);
          };
      std::vector<ClauseId> final_antecedents;
      SortedClause remaining = derive_final_clause(
          final_id, fetch, level0_, stats_,
          observer_ != nullptr ? &final_antecedents : nullptr, &before_fetch);
      validate_assumption_clause(remaining, level0_);
      if (observer_ != nullptr) {
        observer_->on_final(final_id, final_antecedents, remaining);
      }
      result.failed_assumption_clause = std::move(remaining);
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.error = std::string("trace error: ") + e.what();
    }
    // Nothing is released, so each lane's arena peak is all it built and
    // their sum is the same at any job count.
    for (const Lane& lane : lanes_) {
      stats_.arena_peak_bytes += lane.arena.peak_bytes();
      stats_.arena_allocated_bytes += lane.arena.allocated_bytes();
      stats_.arena_recycled_bytes += lane.arena.recycled_bytes();
      stats_.resolutions += lane.stats.resolutions;
      stats_.clauses_built += lane.stats.clauses_built;
      stats_.core_original_clauses += lane.stats.core_original_clauses;
    }
    stats_.peak_mem_bytes = mem_.peak_bytes() + stats_.arena_peak_bytes;
    result.stats = stats_;
    obs::Span core_span("core");
    if (result.ok && collect_core) {
      result.core.reserve(stats_.core_original_clauses);
      for (ClauseId id = 0; id < num_original_; ++id) {
        const Lit* block = slots_[id].load(std::memory_order_relaxed);
        if (block != nullptr && block != kFailed) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// One worker's state; lane 0 runs on the calling thread. Its buffers
  /// are the workspace's lane of the same index; arena blocks stay put for
  /// the whole check. Aligned so that lanes' counters do not share a cache
  /// line.
  struct alignas(64) Lane {
    explicit Lane(CheckMemory::Lane& memory)
        : arena(memory.arena),
          chain(memory.chain),
          stack(memory.stack),
          round(memory.round) {}
    util::ClauseArena& arena;
    ChainResolver& chain;
    std::vector<ClauseId>& stack;  ///< build()'s claimed clauses
    std::vector<std::uint32_t>& round;  ///< its share of order_, in order
    CheckStats stats;  ///< resolutions, clauses_built, core_original_clauses
    /// This round's failing clauses and their diagnostics.
    std::vector<std::pair<ClauseId, std::string>> failures;
  };

  [[nodiscard]] bool planned(ClauseId id) const {
    return id < planned_.size() && planned_[id] != kUnplanned;
  }

  /// Builds the cone of `root`, and those of the `pending` antecedents, as
  /// one round; then announces the round to the observer. When the round
  /// references a clause the trace never derives, the fetched cone alone
  /// is planned instead, and if it still does, the check fails naming the
  /// lowest such ID.
  void build_round(ClauseId root, std::span<const std::uint64_t> pending) {
    ClauseId missing = schedule(root, pending);
    if (missing != kInvalidClauseId && !pending.empty()) {
      missing = schedule(root, {});
    }
    if (missing != kInvalidClauseId) {
      DerivationIndex::throw_never_derived(missing);
    }
    {
      obs::Span span("replay");
      if (lanes_.size() == 1 || round_.size() < kMinParallelRound) {
        build_in_order(lanes_[0]);
      } else {
        deal();
        run_lanes();
      }
    }
    for (Lane& lane : lanes_) {
      for (auto& [id, error] : lane.failures) {
        failures_.emplace(id, std::move(error));
      }
      lane.failures.clear();
    }
    if (observer_ != nullptr) announce();
  }

  /// Plans a round into round_, in ascending ID order: the unplanned
  /// clauses reachable from `root` and from the pending antecedents. One
  /// sweep down the IDs finds them. At jobs > 1 the sweep also gives each
  /// derived clause a height, the length of the longest path from it to a
  /// root of the round, so every source stands higher than its consumers,
  /// and keeps the consumer that set the height last, for deal(). The
  /// round's heights start above base_, the highest height of earlier
  /// rounds, so nothing is reset between rounds. Returns the lowest ID the
  /// round references that the trace never derives, having unmarked the
  /// round, or kInvalidClauseId.
  ClauseId schedule(ClauseId root, std::span<const std::uint64_t> pending) {
    obs::Span span("schedule");
    round_.clear();
    originals_.clear();
    // Locals, not members: the byte stores to `planned` would otherwise
    // make the compiler reload every member in the loop.
    std::uint8_t* const planned = planned_.data();
    const bool heights = lanes_.size() > 1;
    std::uint32_t* const height = height_.data();
    std::uint32_t* const consumer = consumer_.data();
    const std::uint32_t base = base_;
    ClauseId top = 0;      // highest derived ID to sweep from
    std::size_t open = 0;  // derived clauses marked but not swept yet
    std::uint32_t tallest = base + 1;  // the round's highest height
    ClauseId missing = kInvalidClauseId;
    const auto add_root = [&](ClauseId r) {
      if (this->planned(r)) return;
      if (r < num_original_) {
        planned[r] = kThisRound;
        originals_.push_back(static_cast<std::uint32_t>(r));
      } else if (!derivations_.contains(r)) {
        missing = std::min(missing, r);
      } else {
        planned[r] = kThisRound;
        ++open;
        top = std::max(top, r);
        if (heights) {
          height[r] = base + 1;
          consumer[r] = static_cast<std::uint32_t>(r);  // none: a root
        }
      }
    };
    add_root(root);
    for (const std::uint64_t entry : pending) {
      add_root(level0_.antecedent(pending_literal(entry).var()));
    }
    for (ClauseId id = top; open != 0; --id) {
      if (planned[id] != kThisRound) continue;
      --open;
      round_.push_back(static_cast<std::uint32_t>(id));
      const std::uint32_t h = heights ? height[id] : 0;
      tallest = std::max(tallest, h + 1);
      for (const std::uint32_t s : derivations_.sources_of(id)) {
        if (planned[s] == kUnplanned) {
          if (s < num_original_) {
            planned[s] = kThisRound;
            originals_.push_back(s);
            continue;
          }
          if (!derivations_.contains(s)) {
            missing = std::min<ClauseId>(missing, s);
            continue;
          }
          planned[s] = kThisRound;
          ++open;
        } else if (planned[s] == kPlanned || s < num_original_) {
          continue;
        }
        if (heights && height[s] <= h) {
          height[s] = h + 1;
          consumer[s] = static_cast<std::uint32_t>(id);
        }
      }
    }
    if (missing != kInvalidClauseId) {
      for (const ClauseId id : originals_) planned[id] = kUnplanned;
      for (const ClauseId id : round_) {
        planned[id] = kUnplanned;
        if (heights) height[id] = 0;
      }
      return missing;
    }
    // Originals have the lowest IDs, and the sweep found the derived
    // clauses in descending order.
    std::sort(originals_.begin(), originals_.end());
    std::reverse(round_.begin(), round_.end());
    round_.insert(round_.begin(), originals_.begin(), originals_.end());
    for (const ClauseId id : round_) planned[id] = kPlanned;
    if (heights) {
      round_base_ = base;
      base_ = tallest;
    }
    return kInvalidClauseId;
  }

  /// Deals round_ to the lanes, originals first and then the derived
  /// clauses by decreasing height, keeping each lane's list in that order
  /// so that the lanes move down the heights together. A derived clause
  /// hands its lane to the consumer that set its height; a clause takes
  /// the first lane handed to it unless that lane is more than
  /// kAffinitySlack resolve sources ahead of the least loaded one, where
  /// it goes otherwise. So a chain whose links have one consumer stays on
  /// one lane.
  void deal() {
    // Counting sort by rank; within a rank, ID order. The round's heights
    // lie in (round_base_, base_].
    const auto rank = [&](ClauseId id) -> std::size_t {
      return id < num_original_ ? 0 : base_ + 1 - height_[id];
    };
    std::vector<std::size_t> next(base_ - round_base_ + 1, 0);
    for (const ClauseId id : round_) ++next[rank(id)];
    std::size_t at = 0;
    for (std::size_t& n : next) at += std::exchange(n, at);
    order_.resize(round_.size());
    for (const std::uint32_t id : round_) order_[next[rank(id)]++] = id;

    std::vector<std::size_t> load(lanes_.size(), 0);
    for (Lane& lane : lanes_) lane.round.clear();
    for (const std::uint32_t id : order_) {
      std::size_t lane = std::min_element(load.begin(), load.end()) -
                         load.begin();
      const std::uint32_t handed = lane_hint_[id];
      if (handed != 0 && load[handed - 1] <= load[lane] + kAffinitySlack) {
        lane = handed - 1;
      }
      lanes_[lane].round.push_back(id);
      if (id < num_original_) {
        load[lane] += 1;
        continue;
      }
      load[lane] += derivations_.sources_of(id).size();
      if (consumer_[id] != id) {
        std::uint32_t& next_lane = lane_hint_[consumer_[id]];
        if (next_lane == 0) next_lane = static_cast<std::uint32_t>(lane + 1);
      }
    }
  }

  /// Builds every lane's list, lane 0 here and the others on the pool.
  void run_lanes() {
    if (!pool_.has_value()) pool_.emplace(lanes_.size() - 1);
    for (std::size_t l = 1; l < lanes_.size(); ++l) {
      if (lanes_[l].round.empty()) continue;
      pool_->submit([this, &lane = lanes_[l]] {
        obs::Span task("task");
        lane.chain.reserve_vars(level0_.num_vars());
        sweep(lane);
      });
    }
    if (!lanes_[0].round.empty()) {
      obs::Span task("task");
      sweep(lanes_[0]);
    }
    pool_->wait_idle();  // orders every lane's writes before what follows
  }

  /// Reports the round's built clauses to the observer, in ascending ID
  /// order: every source precedes its consumer.
  void announce() {
    for (const ClauseId id : round_) {
      const Lit* block = slots_[id].load(std::memory_order_relaxed);
      if (block == kFailed) continue;
      const ClauseView lits = util::ClauseArena::view_of(block);
      if (id < num_original_) {
        observer_->on_original(id, lits);
      } else {
        observer_->on_derived(id, lits, derivations_.sources_of(id));
      }
    }
  }

  /// The built clause `id`, or, when it failed, the diagnostic of the
  /// lowest failing clause in its cone of failed clauses. Every clause of
  /// a round is attempted, a failure only leaving its consumers unbuilt,
  /// so the result does not depend on the lanes.
  ClauseView built(ClauseId id) {
    const Lit* block = slots_[id].load(std::memory_order_acquire);
    if (block != kFailed) return util::ClauseArena::view_of(block);
    std::vector<ClauseId> stack{id};
    std::vector<std::uint8_t> seen(slots_.size(), 0);
    ClauseId lowest = kInvalidClauseId;
    while (!stack.empty()) {
      const ClauseId c = stack.back();
      stack.pop_back();
      if (failures_.count(c) != 0) lowest = std::min(lowest, c);
      if (c < num_original_) continue;
      for (const ClauseId s : derivations_.sources_of(c)) {
        if (seen[s] != 0 ||
            slots_[s].load(std::memory_order_acquire) != kFailed) {
          continue;
        }
        seen[s] = 1;
        stack.push_back(s);
      }
    }
    if (lowest == kInvalidClauseId) {
      throw CheckFailure("internal error: clause " + std::to_string(id) +
                         " is unbuilt but its cone has no failure");
    }
    throw CheckFailure(failures_.at(lowest));
  }

  /// Builds round_ on the calling thread in ascending ID order, so every
  /// source is built (or failed) before its consumer; the next clauses'
  /// sources are prefetched while this one folds.
  void build_in_order(Lane& lane) {
    const std::size_t n = round_.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (k + 2 < n) prefetch_sources(round_[k + 2]);
      const ClauseId id = round_[k];
      const Lit* block = id < num_original_
                             ? build_original(id, lane)
                             : fold(id, derivations_.sources_of(id), lane);
      slots_[id].store(block, std::memory_order_release);
    }
  }

  /// Builds the clauses of the lane's list that no other lane took, in
  /// order, prefetching like build_in_order. Never throws: a failure is
  /// recorded on the lane and published, and its consumers publish that
  /// they failed too.
  void sweep(Lane& lane) {
    const std::span<const std::uint32_t> ids = lane.round;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (k + 2 < ids.size()) prefetch_sources(ids[k + 2]);
      if (claim(ids[k])) build(ids[k], lane);
    }
  }

  void prefetch_sources(ClauseId id) const {
    if (id < num_original_) return;
    const auto srcs = derivations_.sources_of(id);
    util::ClauseArena::prefetch_block(
        slots_[srcs[0]].load(std::memory_order_relaxed));
    util::ClauseArena::prefetch_block(
        slots_[srcs[1]].load(std::memory_order_relaxed));
  }

  /// Builds `id`, which this lane claimed. A source that no lane has
  /// started is claimed and built first, on this lane, so a lane that falls
  /// behind (or is descheduled) holds up only the clause it is building.
  /// A lane waits only on sources below every clause it has claimed, so no
  /// two lanes ever wait on each other.
  void build(ClauseId id, Lane& lane) {
    lane.stack.push_back(id);
    while (!lane.stack.empty()) {
      const ClauseId need = try_build(lane.stack.back(), lane);
      if (need == kInvalidClauseId) {
        lane.stack.pop_back();
      } else {
        lane.stack.push_back(need);
      }
    }
  }

  /// Builds and publishes `id` once every source is published. On meeting
  /// a source that no lane has started, claims it and returns it instead.
  ClauseId try_build(ClauseId id, Lane& lane) {
    if (id < num_original_) {
      publish(id, build_original(id, lane));
      return kInvalidClauseId;
    }
    const auto sources = derivations_.sources_of(id);
    for (const std::uint32_t s : sources) {
      const Lit* block = slots_[s].load(std::memory_order_acquire);
      if (finished(block)) continue;
      if (block == nullptr && claim(s)) return s;
      (void)await(slots_[s]);
    }
    publish(id, fold(id, sources, lane));
    return kInvalidClauseId;
  }

  /// Original clause `id` in canonical form, stored on `lane`, or kFailed.
  const Lit* build_original(ClauseId id, Lane& lane) {
    if (canonical_.tautology(id)) {
      lane.failures.emplace_back(id, tautological_original(id));
      return kFailed;
    }
    ++lane.stats.core_original_clauses;
    return lane.arena.tagged_block(lane.arena.put(canonical_.clause(id)));
  }

  /// Replays derivation `id`, whose sources are all published: a left fold
  /// of resolution over them, stored unsorted on `lane` (nothing
  /// downstream needs stored clauses ordered, and the stored bytes then
  /// depend on the trace alone). Returns the block, or kFailed when a step
  /// or a source failed.
  const Lit* fold(ClauseId id, std::span<const std::uint32_t> sources,
                  Lane& lane) {
    const Lit* block = slots_[sources[0]].load(std::memory_order_relaxed);
    if (block == kFailed) return kFailed;
    lane.chain.start(util::ClauseArena::view_of(block));
    for (std::size_t i = 1; i < sources.size(); ++i) {
      block = slots_[sources[i]].load(std::memory_order_relaxed);
      if (block == kFailed) return kFailed;
      const ResolveResult r =
          lane.chain.step(util::ClauseArena::view_of(block));
      ++lane.stats.resolutions;
      if (r.status != ResolveStatus::Ok) {
        lane.failures.emplace_back(
            id, derivation_failure(id, sources[i], i, r.status));
        return kFailed;
      }
    }
    ++lane.stats.clauses_built;
    return lane.arena.tagged_block(lane.arena.put(lane.chain.lits()));
  }

  static bool finished(const Lit* block) {
    return block != nullptr && block != kBuilding && block != kWaiting;
  }

  /// Takes `id` for this lane; false when another lane has it already.
  bool claim(ClauseId id) {
    const Lit* unclaimed = nullptr;
    return slots_[id].compare_exchange_strong(
        unclaimed, kBuilding, std::memory_order_relaxed);
  }

  /// Publishes id's block (or kFailed), waking any lane blocked on it.
  void publish(ClauseId id, const Lit* block) {
    if (slots_[id].exchange(block, std::memory_order_release) == kWaiting) {
      slots_[id].notify_all();
    }
  }

  /// The published block (or kFailed) of a slot another lane is building:
  /// a bounded spin, then a block on the slot.
  static const Lit* await(std::atomic<const Lit*>& slot) {
    for (int i = 0; i < kSpinsBeforeBlock; ++i) {
      const Lit* block = slot.load(std::memory_order_acquire);
      if (finished(block)) return block;
      cpu_relax();
    }
    // Mark the slot so that its builder notifies. From here on it holds
    // kWaiting or the published value: only the builder changes it.
    const Lit* building = kBuilding;
    slot.compare_exchange_strong(building, kWaiting,
                                 std::memory_order_relaxed);
    const Lit* block;
    while ((block = slot.load(std::memory_order_acquire)) == kWaiting) {
      slot.wait(kWaiting, std::memory_order_acquire);
    }
    return block;
  }

  const Formula* formula_;
  const CanonicalOriginals canonical_;
  trace::TraceReader* reader_;
  CheckMemory* memory_;
  // The tables below live in memory_ and are re-initialised by this check.
  Level0Table& level0_;
  DerivationIndex& derivations_;
  ClauseId num_original_;  ///< cached: TraceReader's accessor is virtual
  CertObserver* observer_;
  /// Tagged arena block pointers by ID: null until the clause is built or
  /// a lane claims it, kBuilding (kWaiting once another lane blocks on it)
  /// until that lane publishes the block, or kFailed when it or a source
  /// failed.
  std::span<std::atomic<const Lit*>> slots_;
  std::vector<std::uint8_t>& planned_;  ///< per ID: kUnplanned, ...
  // Rounds hold 32-bit IDs: DerivationIndex rejects larger ones.
  std::vector<std::uint32_t>& round_;      ///< the current round, ascending
  std::vector<std::uint32_t>& originals_;  ///< schedule()'s originals found
  // deal()'s state (jobs > 1 only).
  std::vector<std::uint32_t>& height_;     ///< per ID
  std::vector<std::uint32_t>& consumer_;   ///< per ID: set the height last
  std::vector<std::uint32_t>& lane_hint_;  ///< per ID: lane + 1 handed to it
  std::uint32_t base_ = 0;  ///< the highest height of planned rounds
  std::uint32_t round_base_ = 0;  ///< base_ before the current round
  std::vector<std::uint32_t>& order_;  ///< the current round, by height
  std::map<ClauseId, std::string> failures_;  ///< failing clauses so far
  std::vector<Lane> lanes_;                   ///< one per job
  std::optional<util::ThreadPool> pool_;      ///< jobs - 1 threads
  util::MemTracker mem_;
  CheckStats stats_;
};

}  // namespace

CheckResult check_depth_first(const Formula& f, trace::TraceReader& reader,
                              const DepthFirstOptions& options) {
  const CheckMemoryLease memory(options.memory);
  DepthFirstChecker checker(f, reader, options, *memory);
  return checker.run(options.collect_core);
}

}  // namespace satproof::checker
