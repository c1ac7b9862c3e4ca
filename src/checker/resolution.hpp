#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cnf/types.hpp"

namespace satproof::checker {

/// A clause in checker-canonical form: literals sorted by code, duplicates
/// removed. Canonical form makes resolution a linear merge and makes
/// clause equality a vector comparison. The replay hot path stores derived
/// clauses merely duplicate-free (ChainResolver order) — see ClauseStore —
/// and canonicalizes only where sortedness is observable.
using SortedClause = std::vector<Lit>;

/// A read-only view of a clause's literals. Checker clauses live in a
/// ClauseArena or, for originals already in canonical order, in the
/// Formula itself; views are how they travel between components without
/// copies.
using ClauseView = std::span<const Lit>;

/// Canonicalizes an arbitrary literal sequence.
[[nodiscard]] SortedClause canonicalize(std::span<const Lit> lits);

/// True when the (sorted) clause contains some variable in both phases.
/// Tautological clauses are permanently satisfied and must not appear as
/// resolution sources; the checkers reject traces that reference one.
/// Sorted by code, a literal and its complement are adjacent. Inline: the
/// replay backends test every original clause they fetch.
[[nodiscard]] inline bool is_tautology(ClauseView clause) {
  for (std::size_t i = 1; i < clause.size(); ++i) {
    if (clause[i - 1].var() == clause[i].var()) return true;
  }
  return false;
}

/// Outcome of attempting to resolve two clauses.
enum class ResolveStatus : std::uint8_t {
  Ok,          ///< exactly one clashing variable; resolvent produced
  NoClash,     ///< no variable occurs in both clauses with opposite phases
  MultiClash,  ///< more than one clashing variable (resolvent tautological)
};

/// Result of resolve().
struct ResolveResult {
  ResolveStatus status = ResolveStatus::NoClash;
  Var pivot = kInvalidVar;  ///< the clashing variable when status == Ok
};

/// Resolves two canonical clauses.
///
/// This is the checker's trusted kernel. Following Section 2.1 of the
/// paper, two clauses may be resolved only when *exactly one* variable
/// appears in both with different phases; the resolvent is the disjunction
/// of the remaining literals. Zero clashing variables means the trace asked
/// for a resolution that is not one; two or more means the resolvent would
/// be tautological and the inference chain is broken. Both are reported
/// rather than silently accepted — the checker must not be as trusting as
/// the solver it validates.
///
/// `out` receives the canonical resolvent when the status is Ok; otherwise
/// it is left empty. `a`, `b` and `out` must be distinct objects.
ResolveResult resolve(const SortedClause& a, const SortedClause& b,
                      SortedClause& out);

/// Incremental resolution over a chain of clauses.
///
/// Replaying a derivation left-folds resolution over its sources; doing
/// that with sorted merges costs O(steps * clause length), which on
/// circuit-style instances with long learned clauses makes the checker as
/// slow as the solver — the opposite of the paper's measurement that
/// checking is always much cheaper than solving. ChainResolver keeps the
/// running clause as a literal set with per-literal presence marks (the
/// same trick conflict analysis uses inside the solver), so each step costs
/// O(|next source|) and a whole derivation costs O(total source length).
///
/// Data layout: one flat u64 mark per literal code — the current epoch tag
/// in the high half, the literal's position in the running clause in the
/// low half — so a presence probe is a single load and a compare, and
/// clearing between chains is an epoch bump, never a memset. The clash
/// scan in step() accumulates with conditional moves instead of branching
/// per literal, which keeps the pipeline full on the replay hot loop where
/// clashes are one-in-a-clause events.
///
/// The validity checks are identical to resolve(): each step must clash on
/// exactly one variable.
///
/// One ChainResolver should be reused across derivations; its mark array
/// grows to 2 * num_vars once (reserve_vars() pre-grows it) and is
/// epoch-invalidated, not cleared.
class ChainResolver {
 public:
  /// Pre-sizes the mark array for literals of variables in [0, num_vars),
  /// so no chain over in-range literals ever grows mid-replay. Purely an
  /// optimization; start()/step() grow on demand regardless.
  void reserve_vars(Var num_vars) {
    const std::size_t want = 2 * static_cast<std::size_t>(num_vars) + 2;
    if (marks_.size() < want) marks_.resize(want, 0);
  }

  /// Begins a chain with `first` as the running clause. `first` must be
  /// duplicate-free (canonical clauses are).
  void start(std::span<const Lit> first) {
    bump_epoch();
    lits_.clear();
    std::uint32_t max_code = 0;
    for (const Lit lit : first) max_code = std::max(max_code, lit.code());
    grow_to_code(max_code);
    for (const Lit lit : first) insert(lit);
  }

  /// Resolves the running clause with `next`. On MultiClash/NoClash the
  /// running clause is left unspecified and the chain must be restarted.
  ///
  /// Defined inline (along with start() and the mark helpers): the replay
  /// hot loop makes one step() call per trace resolution — hundreds of
  /// thousands per check — and on short-chain traces the per-call overhead
  /// of an out-of-line kernel rivals the per-literal work itself.
  ResolveResult step(std::span<const Lit> next) {
    ResolveResult res;
    if (next.empty()) {
      res.status = ResolveStatus::NoClash;
      return res;
    }

    // Pass 1: clash scan. Clashes are one-in-a-clause events on the replay
    // hot loop, so accumulate count / first / last with conditional moves
    // instead of branching per literal. The bounds check folds into the
    // scan: marks_ is kept at an even size, so `c < limit` licenses the
    // complement probe `marks[c ^ 1]` too, and with reserve_vars() the grow
    // branch never fires in steady state.
    const std::uint64_t tag = tag_of(epoch_);
    std::size_t limit = marks_.size();
    const std::uint64_t* marks = marks_.data();
    std::uint32_t clashes = 0;
    std::uint32_t first_code = 0;
    std::uint32_t last_code = 0;
    for (const Lit lit : next) {
      const std::uint32_t c = lit.code();
      if (c >= limit) [[unlikely]] {
        grow_to_code(c | 1u);
        limit = marks_.size();
        marks = marks_.data();
      }
      const bool hit = (marks[c ^ 1u] & kEpochMask) == tag;
      first_code = (hit && clashes == 0) ? c : first_code;
      last_code = hit ? c : last_code;
      clashes += hit;
    }

    if (clashes == 0) {
      res.status = ResolveStatus::NoClash;
      return res;
    }
    const Var pivot = Lit::from_code(first_code).var();
    if (Lit::from_code(last_code).var() != pivot) {
      // Two clashes on distinct variables. (Distinct middle clash variables
      // with matching first/last are caught by the pivot count below: they
      // require the pivot variable to occur at least twice in `next`.)
      res.status = ResolveStatus::MultiClash;
      return res;
    }
    // The running clause must hold the pivot in exactly one phase, same as
    // resolve(): resolving "through" a tautology is not a valid inference.
    const std::uint32_t pos_code = Lit::pos(pivot).code();
    const bool has_pos = (marks[pos_code] & kEpochMask) == tag;
    const bool has_neg = (marks[pos_code | 1u] & kEpochMask) == tag;
    if (has_pos && has_neg) {
      res.status = ResolveStatus::MultiClash;
      return res;
    }

    // Pass 2: merge fused with the pivot count. On a count violation the
    // running clause has already been touched — the contract leaves it
    // unspecified after a failed step, so the mutation needs no undo.
    // Every code was bounds-checked in pass 1, so this pass indexes the
    // (possibly regrown) table through a raw pointer.
    erase(has_pos ? Lit::pos(pivot) : Lit::neg(pivot));
    std::uint64_t* const m = marks_.data();
    std::uint32_t pivot_count = 0;
    for (const Lit lit : next) {
      if (lit.var() == pivot) {
        ++pivot_count;
        continue;
      }
      const std::uint32_t c = lit.code();
      if ((m[c] & kEpochMask) != tag) {
        m[c] = tag | static_cast<std::uint32_t>(lits_.size());
        lits_.push_back(lit);
      }
    }
    if (pivot_count != 1) {
      res.status = ResolveStatus::MultiClash;
      return res;
    }
    res.status = ResolveStatus::Ok;
    res.pivot = pivot;
    return res;
  }

  /// Current literals of the running clause, in unspecified order,
  /// duplicate-free. Valid until the next start()/step().
  [[nodiscard]] std::span<const Lit> lits() const {
    return {lits_.data(), lits_.size()};
  }

  /// Mutable access to the running clause's literals, for callers that
  /// reorder in place and then copy the result elsewhere (e.g. into a
  /// clause arena) without the allocation take() implies. Reordering is
  /// safe: start() rebuilds the position marks from scratch. The span is
  /// invalidated — and its contents are unspecified — after the next
  /// start()/step()/take().
  [[nodiscard]] std::span<Lit> lits_mutable() {
    return {lits_.data(), lits_.size()};
  }

  /// Moves the running clause out (unsorted, duplicate-free).
  [[nodiscard]] std::vector<Lit> take() {
    // Invalidate the marks so a future start() sees an empty set.
    bump_epoch();
    return std::move(lits_);
  }

 private:
  /// Mark layout: current-epoch tag in bits 63..32, position in bits 31..0.
  [[nodiscard]] static constexpr std::uint64_t tag_of(std::uint32_t epoch) {
    return static_cast<std::uint64_t>(epoch) << 32;
  }

  [[nodiscard]] bool present(Lit lit) const {
    const std::uint32_t c = lit.code();
    return c < marks_.size() && (marks_[c] & kEpochMask) == tag_of(epoch_);
  }

  void insert(Lit lit) {
    marks_[lit.code()] =
        tag_of(epoch_) | static_cast<std::uint32_t>(lits_.size());
    lits_.push_back(lit);
  }

  void erase(Lit lit) {
    const auto i = static_cast<std::uint32_t>(marks_[lit.code()]);
    const Lit last = lits_.back();
    lits_[i] = last;
    marks_[last.code()] = tag_of(epoch_) | i;
    lits_.pop_back();
    marks_[lit.code()] = 0;
  }

  void grow_to_code(std::uint32_t code) {
    if (code < marks_.size()) return;
    // Always land on an even size so covering a code covers its complement
    // too (step() relies on this to probe marks_[c ^ 1] unchecked); grow
    // geometrically so a rising code sequence costs amortized O(1).
    const std::size_t want = (static_cast<std::size_t>(code) | 1) + 1;
    marks_.resize(std::max(want, marks_.size() * 2), 0);
  }

  void bump_epoch() {
    if (++epoch_ == 0) {
      // A wrapped epoch would alias tags left by chains 2^32 bumps ago (and
      // the zero-initialized marks). Wipe once and restart; this is a
      // once-per-4-billion-chains event.
      std::fill(marks_.begin(), marks_.end(), 0);
      epoch_ = 1;
    }
  }

  static constexpr std::uint64_t kEpochMask = 0xffffffff00000000ull;

  std::vector<Lit> lits_;
  std::vector<std::uint64_t> marks_;  // per literal code: epoch<<32 | pos
  std::uint32_t epoch_ = 0;
};

}  // namespace satproof::checker
