#include "src/checker/breadth_first.hpp"

#include <optional>

#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

class BreadthFirstChecker {
 public:
  BreadthFirstChecker(const Formula& f, trace::TraceReader& reader,
                      const BreadthFirstOptions& options)
      : formula_(&f),
        canonical_(f),
        reader_(&reader),
        num_original_(reader.num_original()),
        num_vars_(reader.num_vars()),
        options_(options),
        level0_(num_vars_),
        counts_(make_use_count_store(options.use_counts)),
        store_(options.recycle_arena) {}

  CheckResult run() {
    CheckResult result;
    try {
      check_header(*formula_, num_vars_, num_original_);
      {
        obs::Span span("parse");
        scan_pass();
      }
      {
        obs::Span span("use_count");
        counting_pass();
      }
      require_final_conflict(final_id_);
      mem_.add(counts_->memory_bytes());
      mem_.add(level0_.size() * 16);
      chain_.reserve_vars(num_vars_);
      {
        obs::Span span("replay");
        resolution_pass();
      }
      const ClauseFetcher fetch = [this](ClauseId id) {
        return fetch_clause(id);
      };
      SortedClause remaining;
      {
        obs::Span span("final_derivation");
        remaining = derive_final_clause(*final_id_, fetch, level0_, stats_);
      }
      if (!remaining.empty()) {
        validate_assumption_clause(remaining, level0_);
        result.failed_assumption_clause = std::move(remaining);
      }
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.ok = false;
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.ok = false;
      result.error = std::string("trace error: ") + e.what();
    }
    // The counts/level-0 footprint only grows and the clause window lives
    // entirely in the arena, so the two peaks compose additively.
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    result.stats = stats_;
    return result;
  }

 private:
  [[nodiscard]] std::uint64_t ordinal(ClauseId id) const {
    return id - num_original_;
  }

  /// First traversal: validates record structure, collects the final
  /// conflict and the level-0 table, and counts how often each learned
  /// clause is used as a resolve source — every use, or with
  /// options_.count_range > 0 the uses of the first range of ordinals.
  /// The use-count store grows with the highest learned clause seen:
  /// every source precedes its derivation, so it is always in range.
  void scan_pass() {
    reader_->rewind();
    std::optional<ClauseId> last_id;
    const std::uint64_t hi = options_.count_range == 0
                                 ? ~std::uint64_t{0}
                                 : options_.count_range;
    const TraceScan scan = scan_trace(
        *reader_, level0_, nullptr, [&](const trace::Record& rec) {
          check_derivation_record(rec, rec.sources.size(), num_original_,
                                  last_id);
          ++stats_.total_derivations;
          counts_->grow(ordinal(rec.id) + 1);
          count_uses(rec.sources, 0, hi);
        });
    final_id_ = scan.final_id;
    num_learned_slots_ = last_id.has_value() ? ordinal(*last_id) + 1 : 0;
  }

  /// Counts the uses, among `sources`, of learned clauses whose ordinal is
  /// in [lo, hi).
  void count_uses(std::span<const ClauseId> sources, std::uint64_t lo,
                  std::uint64_t hi) {
    for (const ClauseId s : sources) {
      if (s < num_original_) continue;
      const std::uint64_t ord = ordinal(s);
      if (ord >= lo && ord < hi) counts_->increment(ord);
    }
  }

  /// Further traversals, only with options_.count_range > 0: count the
  /// uses of each range of learned-clause ordinals after the first, one
  /// pass per range. Then pin the clauses the final derivation needs.
  void counting_pass() {
    const std::uint64_t range = options_.count_range;
    for (std::uint64_t lo = range; range != 0 && lo < num_learned_slots_;
         lo += range) {
      const std::uint64_t hi = lo + range;
      reader_->rewind();
      trace::Record rec;
      bool ended = false;
      while (!ended && reader_->next(rec)) {
        if (rec.kind == trace::RecordKind::End) {
          ended = true;
        } else if (rec.kind == trace::RecordKind::Derivation) {
          count_uses(rec.sources, lo, hi);
        }
      }
    }

    // Pin the final conflicting clause and every level-0 antecedent: they
    // must survive the streaming pass for the empty-clause derivation.
    if (final_id_.has_value() && *final_id_ >= num_original_) {
      counts_->increment(ordinal(*final_id_));
    }
    for (Var v = 0; v < num_vars_; ++v) {
      if (level0_.implied(v) && level0_.antecedent(v) >= num_original_) {
        const ClauseId a = level0_.antecedent(v);
        if (ordinal(a) >= num_learned_slots_) {
          throw CheckFailure("level-0 antecedent " + std::to_string(a) +
                             " of x" + std::to_string(v) +
                             " is never derived in the trace");
        }
        counts_->increment(ordinal(a));
      }
    }
  }

  /// Third traversal: replay every derivation in generation order,
  /// releasing clauses whose uses are exhausted (the core of Section 3.3).
  void resolution_pass() {
    reader_->rewind();
    trace::Record rec;
    bool ended = false;
    while (!ended && reader_->next(rec)) {
      if (rec.kind == trace::RecordKind::End) {
        ended = true;
        continue;
      }
      if (rec.kind != trace::RecordKind::Derivation) continue;

      chain_.start(fetch_clause(rec.sources[0]));
      for (std::size_t i = 1; i < rec.sources.size(); ++i) {
        const ResolveResult r = chain_.step(fetch_clause(rec.sources[i]));
        ++stats_.resolutions;
        if (r.status != ResolveStatus::Ok) {
          throw CheckFailure(
              derivation_failure(rec.id, rec.sources[i], i, r.status));
        }
      }
      ++stats_.clauses_built;

      // Release sources whose last use this was; their arena blocks go on
      // the free lists, so the derived clause below typically reuses one.
      // The decrements go down as one batch per chain (one virtual call
      // instead of one per antecedent); the store reports exhausted
      // ordinals in decrement order, so blocks hit the free lists in the
      // same sequence the per-antecedent loop produced.
      ord_scratch_.clear();
      for (const ClauseId s : rec.sources) {
        if (s >= num_original_) ord_scratch_.push_back(ordinal(s));
      }
      exhausted_scratch_.clear();
      counts_->decrement_batch(ord_scratch_, exhausted_scratch_);
      for (const std::uint64_t ord : exhausted_scratch_) {
        release(static_cast<ClauseId>(ord) + num_original_);
      }
      // Keep the freshly built clause only if something still needs it
      // (stored unsorted — resolution is set-based and nothing downstream
      // reads stored literal order).
      if (counts_->get(ordinal(rec.id)) > 0) {
        store_.put(rec.id, chain_.lits());
      }
    }
  }

  /// Fetches a clause for resolution: originals are read in canonical
  /// form through canonical_; learned clauses come from the live window.
  /// The returned view is valid until the next fetch.
  ClauseView fetch_clause(ClauseId id) {
    if (id < num_original_) return canonical_.source(id);
    if (!store_.contains(id)) {
      throw CheckFailure(
          "clause " + std::to_string(id) +
          " is not available: it was never derived, or its use count was "
          "exhausted earlier than the trace implies");
    }
    return store_.view(id);
  }

  void release(ClauseId id) {
    // A clause built but discarded immediately never entered the store.
    if (store_.contains(id)) store_.release(id);
  }

  const Formula* formula_;
  const CanonicalOriginals canonical_;
  trace::TraceReader* reader_;
  // Cached: TraceReader's accessors are virtual, and the replay tests
  // every fetched source against num_original_.
  ClauseId num_original_;
  Var num_vars_;
  BreadthFirstOptions options_;
  Level0Table level0_;
  std::unique_ptr<UseCountStore> counts_;
  std::optional<ClauseId> final_id_;
  std::uint64_t num_learned_slots_ = 0;
  ClauseStore store_;
  std::vector<std::uint64_t> ord_scratch_;        ///< per-chain ordinals
  std::vector<std::uint64_t> exhausted_scratch_;  ///< zeroed this chain
  ChainResolver chain_;
  util::MemTracker mem_;
  CheckStats stats_;
};

}  // namespace

CheckResult check_breadth_first(const Formula& f, trace::TraceReader& reader,
                                const BreadthFirstOptions& options) {
  BreadthFirstChecker checker(f, reader, options);
  return checker.run();
}

}  // namespace satproof::checker
