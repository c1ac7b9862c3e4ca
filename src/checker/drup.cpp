#include "src/checker/drup.hpp"

#include <algorithm>
#include <istream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/checker/rup_engine.hpp"
#include "src/obs/trace.hpp"
#include "src/util/line_scanner.hpp"

namespace satproof::checker {

namespace {

/// Hash of a canonical clause, for deletion lookup by content.
std::size_t clause_hash(std::span<const Lit> c) {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Lit lit : c) {
    h ^= lit.code() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

/// The proof's steps resolved for replay_rup, up to the first empty lemma
/// or the first deletion of a clause that is not live.
struct ResolvedDrup {
  RupProof proof;
  bool derived_empty = false;     ///< the last step adds the empty clause
  bool failed_deletion = false;   ///< the step after the last one failed
};

/// Resolve pass: numbers the clauses in database order — the formula's
/// non-tautological clauses, then each lemma — and maps each deletion to
/// the number of a live clause with its literals. Only clauses whose hash
/// some deletion names are indexed, and none when nothing is deleted.
ResolvedDrup resolve_drup(const Formula& f, const DrupProof& parsed) {
  ResolvedDrup out{RupProof(f.num_vars())};
  RupProof& proof = out.proof;
  proof.add_originals(f);

  std::vector<std::size_t> named;
  for (const DrupStep& step : parsed.steps) {
    if (!step.deletion && step.lits.empty()) break;
    if (step.deletion && !step.absent) named.push_back(clause_hash(step.lits));
  }
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  std::unordered_multimap<std::size_t, std::uint32_t> live;
  const auto index = [&](std::uint32_t number) {
    if (named.empty()) return;
    const std::size_t h = clause_hash(proof.clause(number));
    if (std::binary_search(named.begin(), named.end(), h)) {
      live.emplace(h, number);
    }
  };
  for (std::uint32_t n = 0; n < proof.num_original; ++n) index(n);

  for (const DrupStep& step : parsed.steps) {
    if (!step.deletion) {
      const std::uint32_t number = proof.add(step.lits);
      index(number);
      proof.steps.push_back({number, false});
      if (step.lits.empty()) {
        out.derived_empty = true;
        return out;
      }
      continue;
    }
    std::uint32_t number = 0;
    bool found = false;
    if (!step.absent) {
      const auto [lo, hi] = live.equal_range(clause_hash(step.lits));
      for (auto it = lo; it != hi; ++it) {
        const std::span<const Lit> c = proof.clause(it->second);
        if (std::ranges::equal(c, step.lits)) {
          number = it->second;
          live.erase(it);
          found = true;
          break;
        }
      }
    }
    if (!found) {
      out.failed_deletion = true;
      return out;
    }
    proof.steps.push_back({number, true});
  }
  return out;
}

}  // namespace

DrupProof read_drup(std::istream& proof, Var num_vars) {
  DrupProof out;
  util::LineScanner scanner(proof);
  std::string_view text;
  std::vector<Lit> raw;
  while (scanner.next(text)) {
    if (text.empty() || text[0] == 'c') continue;
    util::TokenCursor ls(text);
    DrupStep step;
    util::TokenCursor after_first = ls;
    if (after_first.next_word() == "d") {
      step.deletion = true;
      ls = after_first;
    }
    std::int64_t d = 0;
    bool terminated = false;
    std::uint64_t undeclared = 0;  // first variable beyond num_vars, if any
    raw.clear();
    while (ls.next(d)) {
      if (d == 0) {
        terminated = true;
        break;
      }
      const std::uint64_t v = util::magnitude(d);
      if (v > num_vars) {
        if (undeclared == 0) undeclared = v;
        continue;
      }
      raw.push_back(Lit::from_dimacs(d));
    }
    if (!terminated) {
      out.error = "DRUP line not terminated by 0: '" + std::string(text) + "'";
      return out;
    }
    if (undeclared != 0) {
      if (!step.deletion) {
        out.error = "DRUP added clause uses undeclared variable " +
                    std::to_string(undeclared) + " (the formula has " +
                    std::to_string(num_vars) + "): '" + std::string(text) +
                    "'";
        return out;
      }
      // No clause in the database mentions the variable, so this
      // deletion fails when replay reaches it.
      step.absent = true;
    } else {
      step.lits = canonicalize(raw);
    }
    out.steps.push_back(std::move(step));
  }
  return out;
}

DrupCheckResult check_drup(const Formula& f, std::istream& proof,
                           unsigned jobs) {
  DrupCheckResult result;

  // Read the whole proof first; the engine is sized from the formula
  // alone, since every added clause stays within its variables.
  obs::Span parse_span_holder("parse");
  DrupProof parsed = read_drup(proof, f.num_vars());
  parse_span_holder.finish();
  if (!parsed.error.empty()) {
    result.error = std::move(parsed.error);
    return result;
  }

  obs::Span index_span("index");
  const ResolvedDrup resolved = resolve_drup(f, parsed);
  parsed = {};
  index_span.finish();

  obs::Span replay_span("replay");
  const RupReplayResult replay = replay_rup(resolved.proof, jobs);
  replay_span.finish();
  const std::vector<RupStep>& steps = resolved.proof.steps;
  result.propagations = replay.propagations;
  for (std::size_t s = 0; s < replay.failed_step; ++s) {
    ++(steps[s].deletion ? result.deletions : result.clauses_checked);
  }
  if (replay.failed_step < steps.size()) {
    result.error = "added clause is not RUP at its position in the proof";
  } else if (resolved.failed_deletion) {
    result.error = "deletion of a clause not in the database";
  } else if (resolved.derived_empty) {
    result.ok = true;  // empty clause verified: UNSAT proven
  } else {
    result.error = "proof ended without deriving the empty clause";
  }
  return result;
}

}  // namespace satproof::checker
