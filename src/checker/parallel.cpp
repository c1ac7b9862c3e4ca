#include "src/checker/parallel.hpp"

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

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class ParallelChecker {
 public:
  ParallelChecker(const Formula& f, trace::TraceReader& reader, unsigned jobs)
      : formula_(&f),
        reader_(&reader),
        level0_(reader.num_vars()),
        derivations_(reader.num_original()),
        num_original_(reader.num_original()) {
    if (jobs == 0) jobs = std::thread::hardware_concurrency();
    lanes_ = std::vector<Lane>(std::max(jobs, 1u));
  }

  CheckResult run(const ParallelOptions& options) {
    CheckResult result;
    try {
      check_header(*formula_, reader_->num_vars(), num_original_);
      const ClauseId final_id =
          load_full_trace(*reader_, derivations_, level0_, mem_, stats_);
      {
        obs::Span span("index");
        const std::size_t limit = derivations_.id_limit();
        slots_ = std::vector<std::atomic<const Lit*>>(limit);
        planned_.assign(limit, 0);
        if (lanes_.size() > 1) {
          height_.assign(limit, 0);
          consumer_.assign(limit, 0);
          lane_hint_.assign(limit, 0);
        }
        lanes_[0].chain.reserve_vars(level0_.num_vars());
      }
      const ClauseFetcher fetch = [this](ClauseId id) {
        if (!planned(id)) build_round(id, {});
        return built(id);
      };
      // At jobs > 1, a fetch of an unbuilt antecedent builds the cones of
      // every antecedent still pending as well, in one round.
      const PendingHook before_fetch =
          [this](ClauseId next, std::span<const std::uint64_t> pending) {
            if (!planned(next)) build_round(next, pending);
          };
      obs::Span replay_span("replay");
      SortedClause remaining =
          derive_final_clause(final_id, fetch, level0_, stats_, nullptr,
                              lanes_.size() > 1 ? &before_fetch : nullptr);
      replay_span.finish();
      if (!remaining.empty()) {
        validate_assumption_clause(remaining, level0_);
        result.failed_assumption_clause = std::move(remaining);
      }
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.error = std::string("trace error: ") + e.what();
    }
    // Nothing is released, so each lane's arena peak is all it built and
    // their sum is DF's single-arena peak at any job count.
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
    if (result.ok && options.collect_core) {
      // Built original IDs, ascending: the set DF builds, so DF's core.
      for (ClauseId id = 0; id < num_original_; ++id) {
        const Lit* block = slots_[id].load(std::memory_order_relaxed);
        if (block != nullptr && block != kFailed) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// One worker's state; lane 0 runs on the calling thread. Arena blocks
  /// stay put for the whole check. Aligned so that lanes' counters do not
  /// share a cache line.
  struct alignas(64) Lane {
    util::ClauseArena arena;
    ChainResolver chain;
    SortedClause scratch;         ///< canonical_view's buffer
    std::vector<ClauseId> stack;  ///< build()'s claimed clauses
    std::vector<ClauseId> round;  ///< its share of order_, in order
    CheckStats stats;  ///< resolutions, clauses_built, core_original_clauses
    /// This round's failing clauses and their diagnostics.
    std::vector<std::pair<ClauseId, std::string>> failures;
  };

  [[nodiscard]] bool planned(ClauseId id) const {
    return id < planned_.size() && planned_[id] != 0;
  }

  /// Builds the cone of `root` and, at jobs > 1, those of the `pending`
  /// antecedents too, as one round. A round too small to gain is built on
  /// this thread; so is every round at jobs 1, one cone at a time in DF's
  /// plan order.
  void build_round(ClauseId root, std::span<const std::uint64_t> pending) {
    if (lanes_.size() == 1 || !schedule_round(root, pending)) {
      plan_.clear();
      plan_cone(root, derivations_, planned_, plan_);
      sweep(plan_, lanes_[0]);
    } else if (order_.size() < kMinParallelRound) {
      sweep(order_, lanes_[0]);
    } else {
      run_lanes();
    }
    for (Lane& lane : lanes_) {
      for (auto& [id, error] : lane.failures) {
        failures_.emplace(id, std::move(error));
      }
      lane.failures.clear();
    }
  }

  /// Plans a round at jobs > 1 into order_: the unbuilt clauses reachable
  /// from `root` and the pending antecedents, originals first and then by
  /// decreasing height, and deals it when it is big enough for the lanes.
  /// A clause's height is the length of the longest path from it to a root
  /// of the round, so every source stands higher than its consumers. One
  /// sweep down the IDs finds the clauses and their heights: sources
  /// precede their consumers, so each derived clause is reached after
  /// every consumer of the round has raised its height. The sweep also
  /// keeps, per derived source, the consumer that set its height last, for
  /// deal(). Returns false, having planned nothing, when a cone has a
  /// source that is never derived: plan_cone then plans the fetched cone
  /// alone, so the diagnostic is DF's.
  bool schedule_round(ClauseId root, std::span<const std::uint64_t> pending) {
    obs::Span span("schedule");
    round_.clear();
    // Locals, not members: the byte stores to `planned` would otherwise
    // make the compiler reload every member in the loop.
    std::uint8_t* const planned = planned_.data();
    std::uint32_t* const height = height_.data();
    std::uint32_t* const consumer = consumer_.data();
    const std::uint32_t base = base_;
    ClauseId top = 0;      // highest derived ID to sweep from
    std::size_t open = 0;  // derived clauses marked but not swept yet
    std::uint32_t tallest = base + 1;  // the round's highest height
    bool whole = true;
    const auto add_root = [&](ClauseId r) {
      if (this->planned(r)) return;
      if (r >= num_original_ && !derivations_.contains(r)) {
        whole = false;
        return;
      }
      planned[r] = 1;
      if (r < num_original_) {
        round_.push_back(r);
      } else {
        height[r] = base + 1;
        consumer[r] = static_cast<std::uint32_t>(r);  // none: a root
        ++open;
        top = std::max(top, r);
      }
    };
    add_root(root);
    for (const std::uint64_t entry : pending) {
      add_root(level0_.antecedent(pending_literal(entry).var()));
    }
    for (ClauseId id = top; whole && open != 0; --id) {
      const std::uint32_t h = height[id];
      if (h <= base) continue;  // not in this round
      --open;
      round_.push_back(id);
      tallest = std::max(tallest, h + 1);
      for (const std::uint32_t s : derivations_.sources_of(id)) {
        if (s < num_original_) {
          if (planned[s] == 0) {
            planned[s] = 1;
            round_.push_back(s);
          }
          continue;
        }
        if (height[s] > h) continue;
        if (height[s] <= base) {
          if (planned[s] != 0) continue;  // built by an earlier round
          if (!derivations_.contains(s)) {
            whole = false;
            break;
          }
          planned[s] = 1;
          ++open;
        }
        height[s] = h + 1;
        consumer[s] = static_cast<std::uint32_t>(id);
      }
    }
    if (!whole) {
      // Unmark the round: its originals are listed, its derived clauses
      // stand above base.
      for (const ClauseId id : round_) planned[id] = 0;
      for (ClauseId id = num_original_; id <= top; ++id) {
        if (height[id] > base) {
          height[id] = 0;
          planned[id] = 0;
        }
      }
      return false;
    }
    // Counting sort: originals first, then derived clauses by decreasing
    // height; within a rank, sweep order.
    const auto rank = [&](ClauseId id) -> std::size_t {
      return id < num_original_ ? 0 : tallest + 1 - height[id];
    };
    std::vector<std::size_t> next(tallest - base + 1, 0);
    for (const ClauseId id : round_) ++next[rank(id)];
    std::size_t at = 0;
    for (std::size_t& n : next) at += std::exchange(n, at);
    order_.resize(round_.size());
    for (const ClauseId id : round_) order_[next[rank(id)]++] = id;
    base_ = tallest;
    if (order_.size() >= kMinParallelRound) deal();
    return true;
  }

  /// Deals order_ to the lanes, keeping each lane's list in order_'s
  /// order, so that the lanes move down the heights together. A derived
  /// clause hands its lane to the consumer that set its height; a clause
  /// takes the first lane handed to it unless that lane is more than
  /// kAffinitySlack resolve sources ahead of the least loaded one, where
  /// it goes otherwise. So a chain whose links have one consumer stays on
  /// one lane.
  void deal() {
    std::vector<std::size_t> load(lanes_.size(), 0);
    for (Lane& lane : lanes_) lane.round.clear();
    for (const ClauseId id : order_) {
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
        std::uint32_t& next = lane_hint_[consumer_[id]];
        if (next == 0) next = static_cast<std::uint32_t>(lane + 1);
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
        sweep(lane.round, lane);
      });
    }
    if (!lanes_[0].round.empty()) {
      obs::Span task("task");
      sweep(lanes_[0].round, lanes_[0]);
    }
    pool_->wait_idle();  // orders every lane's writes before what follows
  }

  /// The built clause `id`, or, when it failed, the diagnostic of the
  /// lowest failing clause in the cone DF would build for this fetch. That
  /// cone is id's failed clauses: everything fetched before was built, and
  /// a built clause has no failure in its own cone. Every clause of a round
  /// is attempted, a failure only leaving its consumers unbuilt, so the
  /// result does not depend on the rounds or the lanes.
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

  /// Builds the clauses of `ids` that no other lane took, in order on
  /// `lane`, prefetching like DF. Never throws: a failure is recorded on
  /// the lane and published, and its consumers publish that they failed
  /// too.
  void sweep(std::span<const ClauseId> ids, Lane& lane) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (k + 2 < ids.size() && ids[k + 2] >= num_original_) {
        const auto srcs = derivations_.sources_of(ids[k + 2]);
        util::ClauseArena::prefetch_block(
            slots_[srcs[0]].load(std::memory_order_relaxed));
        util::ClauseArena::prefetch_block(
            slots_[srcs[1]].load(std::memory_order_relaxed));
      }
      if (claim(ids[k])) build(ids[k], lane);
    }
  }

  /// Builds `id`, which this lane claimed. A source that no lane has
  /// started is claimed and built first, on this lane, so a lane that falls
  /// behind (or is descheduled) holds up only the clause it is building.
  /// Every lane's claimed clauses form a path towards the sources, and a
  /// lane waits only on a source of the last, so no two lanes ever wait on
  /// each other.
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

  /// Builds and publishes `id`, left-folding its sources like DF and
  /// storing the result unsorted, so the stored bytes depend on the trace
  /// alone. On meeting a source that no lane has started, claims it and
  /// returns it instead: the fold starts over once that source is built.
  ClauseId try_build(ClauseId id, Lane& lane) {
    if (id < num_original_) {
      const ClauseView lits =
          canonical_view(formula_->clause(id), lane.scratch);
      if (is_tautology(lits)) {
        lane.failures.emplace_back(id, tautological_original(id));
        publish(id, kFailed);
      } else {
        ++lane.stats.core_original_clauses;
        publish(id, lane.arena.tagged_block(lane.arena.put(lits)));
      }
      return kInvalidClauseId;
    }
    const auto sources = derivations_.sources_of(id);
    std::uint64_t steps = 0;
    const auto finish = [&](const Lit* block) {
      lane.stats.resolutions += steps;
      publish(id, block);
      return kInvalidClauseId;
    };
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const Lit* block = slots_[sources[i]].load(std::memory_order_acquire);
      if (!finished(block)) [[unlikely]] {
        if (block == nullptr && claim(sources[i])) return sources[i];
        block = await(slots_[sources[i]]);
      }
      if (block == kFailed) return finish(kFailed);
      const ClauseView lits = util::ClauseArena::view_of(block);
      if (i == 0) {
        lane.chain.start(lits);
        continue;
      }
      const ResolveResult r = lane.chain.step(lits);
      ++steps;
      if (r.status != ResolveStatus::Ok) {
        lane.failures.emplace_back(
            id, derivation_failure(id, sources[i], i, r.status));
        return finish(kFailed);
      }
    }
    ++lane.stats.clauses_built;
    return finish(lane.arena.tagged_block(lane.arena.put(lane.chain.lits())));
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
  trace::TraceReader* reader_;
  Level0Table level0_;
  DerivationIndex derivations_;
  ClauseId num_original_;  ///< cached: TraceReader's accessor is virtual
  /// Tagged arena block pointers by ID: null until a lane claims the
  /// clause, kBuilding (kWaiting once another lane blocks on it) until
  /// that lane publishes the block, or kFailed when it or a source failed.
  std::vector<std::atomic<const Lit*>> slots_;
  std::vector<std::uint8_t> planned_;  ///< plan_cone's per-ID bits
  std::vector<ClauseId> plan_;         ///< plan_cone's cone, postorder
  // schedule_round's state (jobs > 1 only). Heights above base_ belong to
  // the round being planned, so nothing is reset between rounds.
  std::vector<std::uint32_t> height_;     ///< per ID
  std::vector<std::uint32_t> consumer_;   ///< per ID: set the height last
  std::vector<std::uint32_t> lane_hint_;  ///< per ID: lane + 1 handed to it
  std::uint32_t base_ = 0;  ///< the highest height of earlier rounds
  std::vector<ClauseId> round_;  ///< the current round, in sweep order
  std::vector<ClauseId> order_;  ///< the current round, by height
  std::map<ClauseId, std::string> failures_;  ///< failing clauses so far
  std::vector<Lane> lanes_;                   ///< one per job
  std::optional<util::ThreadPool> pool_;      ///< jobs - 1 threads
  util::MemTracker mem_;
  CheckStats stats_;
};

}  // namespace

CheckResult check_parallel(const Formula& f, trace::TraceReader& reader,
                           const ParallelOptions& options) {
  ParallelChecker checker(f, reader, options.jobs);
  return checker.run(options);
}

}  // namespace satproof::checker
