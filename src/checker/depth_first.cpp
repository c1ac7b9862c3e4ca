#include "src/checker/depth_first.hpp"

#include <algorithm>

#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

class DepthFirstChecker {
 public:
  DepthFirstChecker(const Formula& f, trace::TraceReader& reader,
                    util::ClauseArena* recycle_arena)
      : formula_(&f),
        reader_(&reader),
        num_original_(reader.num_original()),
        level0_(reader.num_vars()),
        derivations_(num_original_),
        store_(recycle_arena) {}

  CheckResult run(const DepthFirstOptions& options) {
    CheckResult result;
    try {
      check_header(*formula_, reader_->num_vars(), num_original_);
      final_id_ =
          load_full_trace(*reader_, derivations_, level0_, mem_, stats_);
      observer_ = options.observer;
      chain_.reserve_vars(reader_->num_vars());
      {
        obs::Span span("index");
        store_.reserve(derivations_.id_limit());
        if (options.streaming_replay) {
          planned_.assign(store_.id_limit(), 0);
          plan_.reserve(derivations_.num_records());
          plan_cone(final_id_, derivations_, planned_, plan_);
        }
      }
      {
        // Linear sweep over the planned cone: clauses are built in
        // first-use order, so arena writes stream and the sources of the
        // next derivations are prefetched while the current one folds.
        obs::Span replay_span("replay");
        execute_plan();
      }
      const ClauseFetcher fetch =
          options.streaming_replay
              ? ClauseFetcher([this](ClauseId id) { return fetch_streamed(id); })
              : ClauseFetcher([this](ClauseId id) { return build(id); });
      SortedClause remaining;
      {
        // With streaming_replay the trail-antecedent cones outside the
        // final-conflict cone are planned and streamed here, on first
        // fetch — the same schedule-then-sweep discipline as the replay
        // span, building exactly the clauses the lazy walk would.
        obs::Span final_span("final_derivation");
        std::vector<ClauseId> final_antecedents;
        remaining = derive_final_clause(
            final_id_, fetch, level0_, stats_,
            observer_ != nullptr ? &final_antecedents : nullptr);
        validate_assumption_clause(remaining, level0_);
        if (observer_ != nullptr) {
          observer_->on_final(final_id_, final_antecedents, remaining);
        }
      }
      planned_ = {};  // plan bookkeeping is dead weight past this point
      result.failed_assumption_clause = std::move(remaining);
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.ok = false;
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.ok = false;
      result.error = std::string("trace error: ") + e.what();
    }
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    obs::Span core_span("core");
    // The ref table is ID-ordered, so one ascending scan of the original-ID
    // prefix yields the core already sorted.
    const ClauseId originals =
        std::min<ClauseId>(num_original_, store_.id_limit());
    for (ClauseId id = 0; id < originals; ++id) {
      if (store_.contains(id)) ++stats_.core_original_clauses;
    }
    result.stats = stats_;
    if (result.ok && options.collect_core) {
      result.core.reserve(stats_.core_original_clauses);
      for (ClauseId id = 0; id < originals; ++id) {
        if (store_.contains(id)) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// Returns the canonical clause for `id`, building it (and, recursively,
  /// its sources) on demand — recursive_build() of Fig. 3, with an explicit
  /// stack so pathological traces cannot overflow the call stack.
  ClauseView build(ClauseId id) {
    if (store_.contains(id)) return store_.view(id);
    if (id < num_original_) return build_original(id);

    struct Frame {
      ClauseId id;
      std::span<const std::uint32_t> sources;
      std::size_t scan = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({id, derivations_.sources_of(id)});
    while (!stack.empty()) {
      Frame& f = stack.back();
      bool descended = false;
      while (f.scan < f.sources.size()) {
        const ClauseId s = f.sources[f.scan];
        if (store_.contains(s)) {
          ++f.scan;
          continue;
        }
        if (s < num_original_) {
          build_original(s);
          ++f.scan;
          continue;
        }
        // Sources strictly precede the derived ID (validated at load), so
        // this descent terminates.
        stack.push_back({s, derivations_.sources_of(s)});
        descended = true;
        break;
      }
      if (descended) continue;
      fold_sources(f.id, f.sources);
      stack.pop_back();
    }
    return store_.view(id);
  }

  /// Runs the build schedule as one linear sweep. Every entry's sources
  /// precede it in the plan (DFS postorder), so each step is a plain fold
  /// over already-stored clauses; the next entries' first sources are
  /// prefetched while this one resolves.
  void execute_plan() {
    const std::size_t n = plan_.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (k + 2 < n) prefetch_sources(plan_[k + 2]);
      const ClauseId id = plan_[k];
      if (id < num_original_) {
        build_original(id);
        continue;
      }
      fold_sources(id, derivations_.sources_of(id));
    }
    plan_.clear();  // consumed; later plan_cone calls start fresh
  }

  /// Streaming-mode fetcher for derive_final_clause: a planned clause is
  /// already stored; anything else (a trail-antecedent cone disjoint from
  /// the final-conflict cone) is planned and streamed on the spot. Builds
  /// the same clause set, in the same order, with the same diagnostics as
  /// the lazy build() fallback.
  ClauseView fetch_streamed(ClauseId id) {
    if (id < planned_.size() && planned_[id] != 0) return store_.view(id);
    plan_cone(id, derivations_, planned_, plan_);
    execute_plan();
    return store_.view(id);
  }

  /// Warms the cache lines of `id`'s leading source blocks ahead of its
  /// fold. A source still being built right now is simply skipped.
  /// (A wider window was tried and measured slower: issuing a prefetch
  /// per source costs a ref decode each, and on the short-chain instances
  /// the data is usually still warm from the postorder sweep.)
  void prefetch_sources(ClauseId id) {
    if (id < num_original_) return;
    const std::span<const std::uint32_t> srcs = derivations_.sources_of(id);
    store_.prefetch(srcs[0]);
    if (srcs.size() > 1) store_.prefetch(srcs[1]);
  }

  ClauseView build_original(ClauseId id) {
    const ClauseView lits = canonical_view(formula_->clause(id), scratch_);
    if (is_tautology(lits)) throw CheckFailure(tautological_original(id));
    store_.put(id, lits);
    if (observer_ != nullptr) observer_->on_original(id, lits);
    return store_.view(id);
  }

  /// Replays one derivation: left-fold resolution over the sources, which
  /// must all be stored by now.
  void fold_sources(ClauseId id, std::span<const std::uint32_t> sources) {
    chain_.start(store_.view(sources[0]));
    for (std::size_t i = 1; i < sources.size(); ++i) {
      const ResolveResult r = chain_.step(store_.view(sources[i]));
      ++stats_.resolutions;
      if (r.status != ResolveStatus::Ok) {
        throw CheckFailure(derivation_failure(id, sources[i], i, r.status));
      }
    }
    // Copy the resolver's buffer straight into the arena, unsorted:
    // nothing downstream needs stored clauses ordered (resolution is
    // set-based and the failed-assumption clause is sorted where it is
    // produced), and skipping the per-derivation sort is a measurable
    // slice of replay time.
    store_.put(id, chain_.lits());
    ++stats_.clauses_built;
    if (observer_ != nullptr) observer_->on_derived(id, chain_.lits(), sources);
  }

  const Formula* formula_;
  trace::TraceReader* reader_;
  ClauseId num_original_;  ///< cached: TraceReader's accessor is virtual
  Level0Table level0_;
  ClauseId final_id_ = kInvalidClauseId;
  DerivationIndex derivations_;
  ClauseStore store_;
  ChainResolver chain_;
  CertObserver* observer_ = nullptr;
  util::MemTracker mem_;
  CheckStats stats_;
  std::vector<ClauseId> plan_;          ///< build schedule, first-use order
  std::vector<std::uint8_t> planned_;   ///< per-ID scheduled bits (streaming)
  SortedClause scratch_;                ///< canonical_view's buffer
};

}  // namespace

CheckResult check_depth_first(const Formula& f, trace::TraceReader& reader,
                              const DepthFirstOptions& options) {
  DepthFirstChecker checker(f, reader, options.recycle_arena);
  return checker.run(options);
}

}  // namespace satproof::checker
