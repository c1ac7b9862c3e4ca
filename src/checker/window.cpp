#include "src/checker/window.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

/// Largest window budget. A window's CSR offsets are 32-bit, so its source
/// pool must stay below 2^32 entries; every source costs at least one
/// 32-bit slot of budget, so a window of this many bytes cannot outgrow
/// them. An unlimited check (mem_limit_bytes == 0) uses this budget: one
/// window unless the trace itself has 2^32 sources or more.
constexpr std::size_t kMaxWindowBytes =
    std::size_t{std::numeric_limits<std::uint32_t>::max()} *
    sizeof(std::uint32_t);
static_assert(derivation_record_bytes(1) - derivation_record_bytes(0) >=
                  sizeof(std::uint32_t),
              "a window of kMaxWindowBytes must hold fewer than 2^32 "
              "sources");

class WindowChecker {
 public:
  WindowChecker(const Formula& f, trace::TraceReader& reader,
                const WindowOptions& options, CheckMemory& memory)
      : formula_(&f),
        canonical_(f),
        reader_(&reader),
        num_original_(reader.num_original()),
        num_vars_(reader.num_vars()),
        options_(options),
        level0_(memory.level0),
        counts_(make_use_count_store(options.use_counts)),
        ids_(memory.ids),
        win_offset_(memory.win_offset),
        win_pool_(memory.derivations.pool()),
        store_(memory.store()),
        chain_(memory.lane(0).chain),
        observer_(options.observer) {
    level0_.reset(num_vars_);
    // The window's source lists reuse the derivation index's pool: a
    // workspace serves one check at a time, and each depth-first check
    // resets the index before use.
    memory.derivations.reset(num_original_);
    ids_.clear();
    win_offset_.clear();
  }

  CheckResult run() {
    CheckResult result;
    try {
      check_header(*formula_, num_vars_, num_original_);
      window_budget_ = options_.mem_limit_bytes == 0
                           ? kMaxWindowBytes
                           : std::clamp<std::size_t>(
                                 options_.mem_limit_bytes / 4, 1024,
                                 kMaxWindowBytes);
      {
        obs::Span span("parse");
        scan_and_partition();
      }
      {
        obs::Span span("index");
        mark_reachable_and_count();
      }
      chain_.reserve_vars(num_vars_);
      {
        obs::Span span("replay");
        replay_windows();
      }
      const ClauseFetcher fetch = [this](ClauseId id) {
        return fetch_clause(id);
      };
      SortedClause remaining;
      std::vector<ClauseId> used_antecedents;
      std::uint64_t final_resolutions = 0;
      {
        obs::Span span("final_derivation");
        const std::uint64_t before = stats_.resolutions;
        remaining = derive_final_clause(final_id_, fetch, level0_, stats_,
                                        &used_antecedents);
        final_resolutions = stats_.resolutions - before;
        validate_assumption_clause(remaining, level0_);
        if (observer_ != nullptr) {
          observer_->on_final(final_id_, used_antecedents, remaining);
        }
      }
      result.failed_assumption_clause = std::move(remaining);
      {
        // The replay above covered the cones of *every* implied
        // antecedent (only known to be a superset of what the final
        // derivation would use). When the final derivation used them all,
        // the replay-tracked numbers are already the depth-first
        // checker's; otherwise recompute the exact depth-first cone with
        // one more backward windowed sweep over the structure.
        obs::Span span("core");
        std::sort(used_antecedents.begin(), used_antecedents.end());
        used_antecedents.erase(
            std::unique(used_antecedents.begin(), used_antecedents.end()),
            used_antecedents.end());
        if (used_antecedents != implied_ants_) {
          recompute_exact_cone(used_antecedents, final_resolutions);
        }
      }
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.ok = false;
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.ok = false;
      result.error = std::string("trace error: ") + e.what();
    }
    // The resident index only grows and the clause frontier lives entirely
    // in the arena, so the two peaks compose additively.
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    stats_.core_original_clauses = core_count_;
    result.stats = stats_;
    if (result.ok && options_.collect_core) {
      result.core.reserve(core_count_);
      for (ClauseId id = 0; id < core_seen_.size(); ++id) {
        if (core_seen_[id] != 0) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// One derivation window: a contiguous run of derivation records whose
  /// source lists fit the window budget together.
  struct Window {
    std::uint64_t pos = 0;    ///< seek token at or before its first record
    std::size_t first = 0;    ///< index into ids_ of its first derivation
    std::uint32_t count = 0;  ///< derivations it covers
  };

  static constexpr std::size_t kNoWindow = ~std::size_t{0};

  [[nodiscard]] std::uint64_t ordinal(ClauseId id) const {
    return id - num_original_;
  }

  /// Index of a learned clause in ids_, or ~0 when absent. IDs are usually
  /// consecutive (solvers assign them densely), which pass A detects so
  /// the replay's id->index mapping is a subtraction, not a binary search.
  [[nodiscard]] std::size_t index_of(ClauseId id) const {
    if (dense_ids_) {
      if (ids_.empty() || id < ids_.front() || id > ids_.back()) {
        return ~std::size_t{0};
      }
      return static_cast<std::size_t>(id - ids_.front());
    }
    const std::uint32_t needle = static_cast<std::uint32_t>(id);
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), needle);
    if (it == ids_.end() || *it != needle) return ~std::size_t{0};
    return static_cast<std::size_t>(it - ids_.begin());
  }

  [[noreturn]] void fail_budget_record(ClauseId id, std::size_t need) const {
    throw CheckFailure(
        "mem limit " + std::to_string(options_.mem_limit_bytes) +
        " bytes is too small: derivation of clause " + std::to_string(id) +
        " alone needs " + std::to_string(need) +
        " bytes of window structure, but the window budget is " +
        std::to_string(window_budget_) + " bytes; increase --mem-limit");
  }

  /// Pass A: one streaming read validating trace structure, keeping the
  /// derivation IDs resident and recording window boundaries so that each
  /// window's source lists fit the window budget. The window being filled
  /// is the CSR itself, so the last window stays loaded for pass B — and a
  /// trace that fits one window is decoded exactly once, each source
  /// straight into its CSR slot.
  void scan_and_partition() {
    reader_->rewind();
    seekable_ = reader_->seekable();
    // Seek token of the next record: where a window starting there begins.
    std::uint64_t next_pos = seekable_ ? reader_->tell() : 0;
    std::optional<ClauseId> last_id;
    std::size_t cur_window_bytes = 0;
    // A window holds fewer sources than its budget has 32-bit slots, and
    // the trace fewer than it has bytes left (see remaining_bytes()).
    if (const auto bytes = reader_->remaining_bytes()) {
      win_pool_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
          *bytes, window_budget_ / sizeof(std::uint32_t))));
    }
    const TraceScan scan = scan_trace(
        *reader_, level0_, &win_pool_, [&](const trace::Record& rec) {
          // The record's sources were just decoded onto the CSR's end.
          const std::size_t num_sources =
              win_pool_.size() -
              (win_offset_.empty() ? 0 : win_offset_.back());
          check_derivation_record(rec, num_sources, num_original_, last_id);
          // Sources precede rec.id, so bounding the ID makes their 32-bit
          // narrowing lossless (same policy as DerivationIndex).
          if (rec.id > std::numeric_limits<std::uint32_t>::max()) {
            throw CheckFailure("trace too large: clause IDs exceed 2^32");
          }
          const std::size_t cost = derivation_record_bytes(num_sources);
          if (cost > window_budget_) fail_budget_record(rec.id, cost);
          if (windows_.empty() ||
              cur_window_bytes + cost > window_budget_) {
            windows_.push_back({next_pos, ids_.size(), 0});
            cur_window_bytes = 0;
            // The record opens the new window: keep only its sources.
            win_pool_.erase(win_pool_.begin(), win_pool_.end() - num_sources);
            win_offset_.assign(1, 0);
          }
          cur_window_bytes += cost;
          ++windows_.back().count;
          win_offset_.push_back(static_cast<std::uint32_t>(win_pool_.size()));
          if (dense_ids_ && !ids_.empty() &&
              rec.id != static_cast<ClauseId>(ids_.back()) + 1) {
            dense_ids_ = false;
          }
          ids_.push_back(static_cast<std::uint32_t>(rec.id));
          ++stats_.total_derivations;
          if (seekable_) next_pos = reader_->tell();
        });
    final_id_ = require_final_conflict(scan.final_id);
    end_pos_ = seekable_ ? reader_->tell() : 0;
    reader_derivs_ = ids_.size();
    if (!windows_.empty()) loaded_ = windows_.size() - 1;
    mem_.add(ids_.size() * sizeof(std::uint32_t) +
             windows_.size() * sizeof(Window));
  }

  /// Pass B: backward sweep over the windows settling reachability and use
  /// counts. Sources always precede their consumers, so visiting windows
  /// last-to-first (and derivations in reverse within each) means every
  /// derivation's reachability is final before its own sources are walked
  /// — one fused sweep, no global source pool.
  void mark_reachable_and_count() {
    reachable_.assign(ids_.size(), false);
    mem_.add(ids_.size() / 8 + 16);

    const auto seed = [this](ClauseId id, const std::string& what) {
      if (id < num_original_) return;
      const std::size_t idx = index_of(id);
      if (idx == ~std::size_t{0}) {
        throw CheckFailure(what + " " + std::to_string(id) +
                           " is never derived in the trace");
      }
      reachable_[idx] = true;
    };
    seed(final_id_, "final conflicting clause");
    for (Var v = 0; v < num_vars_; ++v) {
      if (level0_.implied(v)) {
        seed(level0_.antecedent(v), "level-0 antecedent");
        implied_ants_.push_back(level0_.antecedent(v));
      }
    }
    std::sort(implied_ants_.begin(), implied_ants_.end());
    implied_ants_.erase(
        std::unique(implied_ants_.begin(), implied_ants_.end()),
        implied_ants_.end());

    const std::uint64_t slots =
        ids_.empty() ? 0 : ordinal(ids_.back()) + 1;
    counts_->resize(slots);
    mem_.add(counts_->memory_bytes());
    mem_.add(level0_.size() * 16);
    core_seen_.assign(num_original_, 0);
    mem_.add(core_seen_.size());

    // The resident index is now complete; a budget it already exceeds
    // (plus one window) can never be honored — fail before doing the
    // expensive passes, with the shortfall spelled out.
    if (options_.mem_limit_bytes != 0 &&
        mem_.current_bytes() + window_budget_ > options_.mem_limit_bytes) {
      throw CheckFailure(
          "mem limit " + std::to_string(options_.mem_limit_bytes) +
          " bytes is too small for this trace: the resident index needs " +
          std::to_string(mem_.current_bytes()) + " bytes plus a " +
          std::to_string(window_budget_) +
          "-byte shifting window; increase --mem-limit");
    }
    account_window();  // the window pass A left loaded

    for (std::size_t w = windows_.size(); w-- > 0;) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = win.count; i-- > 0;) {
        if (!reachable_[win.first + i]) continue;
        for (const std::uint32_t s : window_sources(i)) {
          if (s < num_original_) continue;
          const std::size_t idx = index_of(s);
          if (idx == ~std::size_t{0}) {
            throw CheckFailure("clause " + std::to_string(s) +
                               " is referenced but never derived in the "
                               "trace");
          }
          reachable_[idx] = true;
          counts_->increment(ordinal(s));
        }
      }
      release_window(w);
    }

    // Pin what the final derivation needs.
    if (final_id_ >= num_original_) counts_->increment(ordinal(final_id_));
    for (Var v = 0; v < num_vars_; ++v) {
      if (level0_.implied(v) && level0_.antecedent(v) >= num_original_) {
        counts_->increment(ordinal(level0_.antecedent(v)));
      }
    }
  }

  /// Pass C: forward replay, one window at a time, of the reachable
  /// derivations against the frontier of clauses still referenced later;
  /// each clause leaves the arena the moment its reachable uses are behind.
  /// Kept out of line: inlined into run(), GCC 12 -O3 compiles this loop
  /// about 40% slower (php9 hybrid `replay` span, 52 -> 75 ms).
  [[gnu::noinline]] void replay_windows() {
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = 0; i < win.count; ++i) {
        if (reachable_[win.first + i]) {
          replay(ids_[win.first + i], window_sources(i));
        }
      }
      release_window(w);
    }
  }

  /// Builds clause `id` by left-folding resolution over `sources`, then
  /// releases the sources whose last reachable use this was and keeps the
  /// clause if a later use remains.
  void replay(ClauseId id, std::span<const std::uint32_t> sources) {
    chain_.start(fetch_clause(sources[0]));
    for (std::size_t k = 1; k < sources.size(); ++k) {
      const ResolveResult r = chain_.step(fetch_clause(sources[k]));
      ++stats_.resolutions;
      if (r.status != ResolveStatus::Ok) {
        throw CheckFailure(derivation_failure(id, sources[k], k, r.status));
      }
    }
    ++stats_.clauses_built;
    // Announce before the decrements below so a certificate's deletion
    // records always trail the addition that may trigger them.
    if (observer_ != nullptr) observer_->on_derived(id, chain_.lits(), sources);
    // One batched decrement per chain; exhausted ordinals come back in
    // decrement order, so release order — and hence the free-list state
    // and recycled-bytes counter — matches the per-antecedent loop.
    ord_scratch_.clear();
    for (const ClauseId s : sources) {
      if (s >= num_original_) ord_scratch_.push_back(ordinal(s));
    }
    exhausted_scratch_.clear();
    counts_->decrement_batch(ord_scratch_, exhausted_scratch_);
    for (const std::uint64_t ord : exhausted_scratch_) {
      release(static_cast<ClauseId>(ord) + num_original_);
    }
    if (counts_->get(ordinal(id)) > 0) {
      // Stored unsorted, like the other replay backends: resolution is
      // set-based and nothing downstream reads stored literal order.
      store_.put(id, chain_.lits());
    }
  }

  /// The final derivation may use fewer antecedents than were pinned, in
  /// which case the depth-first checker would have built a smaller cone.
  /// Recompute that exact cone — clauses_built, resolutions, core — with
  /// one more backward windowed sweep over the structure (no literals are
  /// touched; the verdict is already settled).
  void recompute_exact_cone(const std::vector<ClauseId>& used,
                            std::uint64_t final_resolutions) {
    reachable_.assign(ids_.size(), false);
    core_seen_.assign(core_seen_.size(), 0);
    core_count_ = 0;
    const auto seed = [this](ClauseId id) {
      if (id < num_original_) {
        mark_core(id);
        return;
      }
      reachable_[index_of(id)] = true;  // seeded ids were validated earlier
    };
    seed(final_id_);
    for (const ClauseId a : used) seed(a);

    std::uint64_t built = 0;
    std::uint64_t resolutions = final_resolutions;
    for (std::size_t w = windows_.size(); w-- > 0;) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = win.count; i-- > 0;) {
        if (!reachable_[win.first + i]) continue;
        const auto sources = window_sources(i);
        ++built;
        resolutions += sources.size() - 1;
        for (const std::uint32_t s : sources) {
          if (s < num_original_) {
            mark_core(s);
          } else {
            reachable_[index_of(s)] = true;
          }
        }
      }
      release_window(w);
    }
    stats_.clauses_built = built;
    stats_.resolutions = resolutions;
  }

  void clear_window() {
    win_offset_.clear();
    win_pool_.clear();
    win_offset_.push_back(0);
  }

  /// Charges the loaded CSR, in place of the previous one, to the budget.
  void account_window() {
    mem_.remove(win_bytes_);
    win_bytes_ = (win_pool_.size() + win_offset_.size()) *
                 sizeof(std::uint32_t);
    mem_.add(win_bytes_);
  }

  /// Makes window `w`'s source lists the loaded CSR; a no-op when they
  /// already are. Seekable readers seek to the window. A forward-only
  /// reader reads on from where it stands when `w` lies ahead (the forward
  /// replay), and rewinds and skips only when `w` is behind it.
  void load_window(std::size_t w) {
    if (w == loaded_) return;
    const Window& win = windows_[w];
    if (seekable_) {
      reader_->seek(win.pos);
      reader_derivs_ = win.first;
    } else if (reader_derivs_ > win.first) {
      reader_->rewind();
      reader_derivs_ = 0;
    }
    clear_window();
    const std::size_t end = win.first + win.count;
    trace::Record rec;
    while (reader_derivs_ < end) {
      if (!reader_->next_into(rec, win_pool_)) {
        throw CheckFailure("trace shrank between checking passes");
      }
      if (rec.kind != trace::RecordKind::Derivation) continue;
      if (reader_derivs_++ >= win.first) {
        win_offset_.push_back(static_cast<std::uint32_t>(win_pool_.size()));
      } else {
        win_pool_.resize(win_offset_.back());  // a record before `w`
      }
    }
    loaded_ = w;
    account_window();
  }

  /// Source list of the i-th derivation of the currently loaded window.
  [[nodiscard]] std::span<const std::uint32_t> window_sources(
      std::uint32_t i) const {
    return {win_pool_.data() + win_offset_[i],
            win_offset_[i + 1] - win_offset_[i]};
  }

  /// Drops window `w`'s trace pages from memory after a sweep visits it;
  /// the next pass faults them back in on demand.
  void release_window(std::size_t w) {
    if (!seekable_) return;
    const std::uint64_t end =
        w + 1 < windows_.size() ? windows_[w + 1].pos : end_pos_;
    reader_->release_hint(windows_[w].pos, end);
  }

  void mark_core(ClauseId original) {
    if (core_seen_[original] == 0) {
      core_seen_[original] = 1;
      ++core_count_;
    }
  }

  /// Originals are read in canonical form through canonical_, as in the
  /// breadth-first checker; learned clauses from the frontier.
  ClauseView fetch_clause(ClauseId id) {
    if (id < num_original_) {
      const ClauseView lits = canonical_.source(id);
      mark_core(id);
      return lits;
    }
    if (!store_.contains(id)) {
      throw CheckFailure(
          "clause " + std::to_string(id) +
          " is not available: it was never derived, or its use count was "
          "exhausted earlier than the trace implies");
    }
    return store_.view(id);
  }

  void release(ClauseId id) {
    // A clause built but never stored has nothing to release.
    if (store_.contains(id)) {
      store_.release(id);
      if (observer_ != nullptr) observer_->on_released(id);
    }
  }

  const Formula* formula_;
  const CanonicalOriginals canonical_;
  trace::TraceReader* reader_;
  // Cached: TraceReader's accessors are virtual, and the replay tests
  // every fetched source against num_original_.
  ClauseId num_original_;
  Var num_vars_;
  WindowOptions options_;
  Level0Table& level0_;  ///< the workspace's, like ids_ and the CSR
  std::unique_ptr<UseCountStore> counts_;
  ClauseId final_id_ = kInvalidClauseId;

  // Resident index (pass A): derivation IDs (32-bit, bounded at scan
  // time) and the window table — a few bytes per derivation, never the
  // source lists.
  std::vector<std::uint32_t>& ids_;
  std::vector<Window> windows_;
  std::vector<bool> reachable_;
  bool dense_ids_ = true;
  bool seekable_ = false;
  std::uint64_t end_pos_ = 0;
  std::size_t window_budget_ = 0;

  // One window's source lists (reused CSR buffers), which window they
  // hold, and how many derivation records the reader has passed.
  std::vector<std::uint32_t>& win_offset_;
  std::vector<std::uint32_t>& win_pool_;
  std::size_t win_bytes_ = 0;
  std::size_t loaded_ = kNoWindow;
  std::size_t reader_derivs_ = 0;

  std::vector<ClauseId> implied_ants_;  ///< sorted unique pinned antecedents
  std::vector<std::uint8_t> core_seen_;  ///< per-original core membership
  std::uint64_t core_count_ = 0;

  ClauseStore& store_;
  std::vector<std::uint64_t> ord_scratch_;        ///< per-chain ordinals
  std::vector<std::uint64_t> exhausted_scratch_;  ///< zeroed this chain
  ChainResolver& chain_;
  util::MemTracker mem_;
  CheckStats stats_;
  CertObserver* observer_ = nullptr;
};

}  // namespace

CheckResult check_window(const Formula& f, trace::TraceReader& reader,
                         const WindowOptions& options) {
  const CheckMemoryLease memory(options.memory);
  WindowChecker checker(f, reader, options, *memory);
  return checker.run();
}

}  // namespace satproof::checker
