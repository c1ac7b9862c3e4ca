#include "src/checker/parallel.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/util/thread_pool.hpp"

namespace satproof::checker {

namespace {

/// Cones of fewer clauses, and partitions taking fewer source visits off
/// the calling thread, replay on it: the workers would save too little.
constexpr std::size_t kMinPartitioned = 1024;

/// Labels of the cone being partitioned (label_; stale outside it).
constexpr std::uint32_t kPending = 0;  ///< no consumer visited yet
constexpr std::uint32_t kSeed = 1;     ///< so far consumed by top clauses only
constexpr std::uint32_t kShared = 2;   ///< built first
constexpr std::uint32_t kTop = 3;      ///< root or split seed: built last
constexpr std::uint32_t kFirstGroup = 4;

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
        slots_.assign(limit, nullptr);
        planned_.assign(limit, 0);
        if (lanes_.size() > 1) label_.assign(limit, kPending);
        lanes_[0].chain.reserve_vars(level0_.num_vars());
      }
      const ClauseFetcher fetch = [this](ClauseId id) {
        if (id >= planned_.size() || planned_[id] == 0) build_cone(id);
        return util::ClauseArena::view_of(slots_[id]);
      };
      obs::Span replay_span("replay");
      SortedClause remaining =
          derive_final_clause(final_id, fetch, level0_, stats_);
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
      stats_.clauses_built += lane.stats.clauses_built;
      stats_.core_original_clauses += lane.stats.core_original_clauses;
    }
    stats_.peak_mem_bytes = mem_.peak_bytes() + stats_.arena_peak_bytes;
    result.stats = stats_;
    obs::Span core_span("core");
    if (result.ok && options.collect_core) {
      // Built original IDs, ascending: the set DF builds, so DF's core.
      for (ClauseId id = 0; id < num_original_; ++id) {
        if (slots_[id] != nullptr) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// One worker's state; lane 0 also serves the calling thread while no
  /// task runs. Arena blocks stay put for the whole check.
  struct Lane {
    util::ClauseArena arena;
    ChainResolver chain;
    SortedClause scratch;               ///< canonical_view's buffer
    std::vector<std::uint32_t> groups;  ///< this cone's, into groups_
    CheckStats stats;  ///< resolutions, clauses_built, core_original_clauses
    ClauseId failed = kInvalidClauseId;  ///< lowest failing clause
    std::string error;                   ///< its diagnostic
    void fail(ClauseId id, std::string diagnostic) {
      if (id >= failed) return;
      failed = id;
      error = std::move(diagnostic);
    }
  };

  /// A group's clauses (seed first until put in plan order) and sources.
  struct Group {
    std::vector<ClauseId> ids;
    std::size_t weight = 0;
  };

  /// Plans root's cone with DF's planner and builds it, in plan order on
  /// this thread unless run_partitioned() spreads it over the pool.
  void build_cone(ClauseId root) {
    plan_.clear();
    plan_cone(root, derivations_, planned_, plan_);
    if (lanes_.size() == 1 || plan_.size() < kMinPartitioned ||
        !run_partitioned(root)) {
      sweep(plan_, lanes_[0]);
    }
    // Every clause of the cone was attempted; a failure leaves its
    // consumers unbuilt instead of cancelling anything, so the lowest
    // failing ID is the same however the cone was split.
    const Lane* first = &lanes_[0];
    for (Lane& lane : lanes_) {
      stats_.resolutions += std::exchange(lane.stats.resolutions, 0);
      if (lane.failed < first->failed) first = &lane;
    }
    if (first->failed != kInvalidClauseId) throw CheckFailure(first->error);
    if (slots_[root] == nullptr) {
      throw CheckFailure("internal error: clause " + std::to_string(root) +
                         " was scheduled before its sources");
    }
  }

  /// Labels plan_, splits groups heavier than 1/jobs of it at their seeds
  /// and labels again, then builds shared clauses here, the groups across
  /// the pool and the top here, each in plan order. Returns false, having
  /// built nothing, when the pool would take too little work off this one.
  bool run_partitioned(ClauseId root) {
    obs::Span span("partition");
    std::vector<ClauseId> tops{root};
    std::size_t total = label_cone(tops);
    if (total == 0) return false;
    for (const Group& g : groups_) {
      if (g.weight * lanes_.size() > total) tops.push_back(g.ids.front());
    }
    if (tops.size() > 1 && label_cone(tops) == 0) return false;
    // Deal the groups heaviest first to the least-loaded lane.
    std::stable_sort(groups_.begin(), groups_.end(), [](auto& a, auto& b) {
      return a.weight > b.weight;
    });
    std::vector<std::size_t> load(lanes_.size(), 0);
    std::size_t grouped = 0;
    for (Lane& lane : lanes_) lane.groups.clear();
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      const auto least = std::min_element(load.begin(), load.end());
      *least += groups_[g].weight;
      grouped += groups_[g].weight;
      lanes_[least - load.begin()].groups.push_back(g);
    }
    const std::size_t busiest = *std::max_element(load.begin(), load.end());
    if (grouped - busiest < kMinPartitioned) return false;
    std::reverse(shared_.begin(), shared_.end());
    std::reverse(top_.begin(), top_.end());
    for (Group& g : groups_) std::reverse(g.ids.begin(), g.ids.end());
    span.finish();

    sweep(shared_, lanes_[0]);
    if (!pool_.has_value()) pool_.emplace(lanes_.size());
    for (Lane& lane : lanes_) {
      if (lane.groups.empty()) continue;
      pool_->submit([this, &lane] {
        lane.chain.reserve_vars(level0_.num_vars());
        for (const std::uint32_t g : lane.groups) {
          obs::Span task("task");
          sweep(groups_[g].ids, lane);
        }
      });
    }
    pool_->wait_idle();  // orders every task's slot writes before the top
    sweep(top_, lanes_[0]);
    return true;
  }

  /// Files each clause of plan_ in shared_ (with the originals), a group or
  /// top_, so that shared clauses need no grouped one and grouped ones
  /// only their group and shared ones. Going backwards through the plan
  /// meets consumers before sources, so a label is final once reached: a
  /// top clause makes its pending sources seeds, a seed no other clause
  /// consumes starts a group, and any other clause joins the one label
  /// its non-top consumers share or is shared. Returns the cone's source
  /// count, or 0 once over half the cone is shared: then nothing can pay.
  std::size_t label_cone(const std::vector<ClauseId>& tops) {
    for (const ClauseId id : plan_) label_[id] = kPending;
    for (const ClauseId id : tops) label_[id] = kTop;
    groups_.clear();
    shared_.clear();
    top_.clear();
    std::size_t total = 0, shared = 0;
    for (auto it = plan_.rbegin(); it != plan_.rend(); ++it) {
      // The pool is laid out in trace order, not plan order: fetch ahead.
      if (plan_.rend() - it > 8 && it[8] >= num_original_) {
        util::ClauseArena::prefetch_block(&derivations_.sources_of(it[8])[0]);
      }
      const ClauseId id = *it;
      if (id < num_original_) {
        shared_.push_back(id);
        continue;
      }
      const auto sources = derivations_.sources_of(id);
      total += sources.size();
      if (label_[id] == kSeed) {
        label_[id] = kFirstGroup + static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back();
      }
      const std::uint32_t mine = label_[id];
      if (mine == kTop) {
        top_.push_back(id);
      } else if (mine == kShared) {
        shared_.push_back(id);
        if (++shared * 2 > plan_.size()) return 0;
      } else {
        groups_[mine - kFirstGroup].ids.push_back(id);
        groups_[mine - kFirstGroup].weight += sources.size();
      }
      for (const ClauseId s : sources) {
        // Originals, and clauses built by earlier cones, need no label.
        if (s < num_original_ || slots_[s] != nullptr) continue;
        std::uint32_t& theirs = label_[s];
        if (mine == kTop) {
          if (theirs == kPending) theirs = kSeed;
        } else if (theirs == kPending || theirs == kSeed) {
          theirs = mine;
        } else if (theirs != mine) {
          theirs = kShared;
        }
      }
    }
    return total;
  }

  /// Builds `ids` in order on `lane`, prefetching like DF. Never throws: a
  /// failure is recorded on the lane and its consumers are skipped.
  void sweep(std::span<const ClauseId> ids, Lane& lane) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (k + 2 < ids.size() && ids[k + 2] >= num_original_) {
        const auto srcs = derivations_.sources_of(ids[k + 2]);
        util::ClauseArena::prefetch_block(slots_[srcs[0]]);
        util::ClauseArena::prefetch_block(slots_[srcs[1]]);
      }
      const ClauseId id = ids[k];
      if (id >= num_original_) {
        build_derived(id, lane);
        continue;
      }
      const ClauseView lits =
          canonical_view(formula_->clause(id), lane.scratch);
      if (is_tautology(lits)) {
        lane.fail(id, tautological_original(id));
      } else {
        ++lane.stats.core_original_clauses;
        slots_[id] = lane.arena.tagged_block(lane.arena.put(lits));
      }
    }
  }

  /// Left-folds id's sources like DF and publishes the result unsorted, so
  /// the stored bytes depend on the trace alone.
  void build_derived(ClauseId id, Lane& lane) {
    const auto sources = derivations_.sources_of(id);
    if (slots_[sources[0]] == nullptr) return;
    lane.chain.start(util::ClauseArena::view_of(slots_[sources[0]]));
    for (std::size_t i = 1; i < sources.size(); ++i) {
      if (slots_[sources[i]] == nullptr) return;
      const ResolveResult r =
          lane.chain.step(util::ClauseArena::view_of(slots_[sources[i]]));
      ++lane.stats.resolutions;
      if (r.status != ResolveStatus::Ok) {
        return lane.fail(id, derivation_failure(id, sources[i], i, r.status));
      }
    }
    ++lane.stats.clauses_built;
    slots_[id] = lane.arena.tagged_block(lane.arena.put(lane.chain.lits()));
  }

  const Formula* formula_;
  trace::TraceReader* reader_;
  Level0Table level0_;
  DerivationIndex derivations_;
  ClauseId num_original_;  ///< cached: TraceReader's accessor is virtual
  /// Tagged arena block pointers by ID, null while unbuilt or failed. A
  /// slot has one writer, ordered before other threads' reads by the pool.
  std::vector<const Lit*> slots_;
  std::vector<std::uint8_t> planned_;  ///< plan_cone's per-ID bits
  std::vector<ClauseId> plan_;         ///< the current cone, postorder
  std::vector<std::uint32_t> label_;   ///< per-ID labels (jobs > 1 only)
  std::vector<Group> groups_;          ///< the current partition's groups
  std::vector<ClauseId> shared_;       ///< its originals and shared clauses
  std::vector<ClauseId> top_;          ///< its top clauses
  std::vector<Lane> lanes_;            ///< one per job
  std::optional<util::ThreadPool> pool_;
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
