// Tests for the proof-DAG extraction, metrics, and export formats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/checker/common.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/resolution.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/proof/export.hpp"
#include "src/proof/proof_dag.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"

namespace satproof::proof {
namespace {

struct Solved {
  Formula formula;
  trace::MemoryTrace trace;
};

Solved solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take()};
}

ProofDag extract(const Solved& su) {
  trace::MemoryTraceReader r(su.trace);
  return extract_proof(su.formula, r);
}

// ---- reference extraction -------------------------------------------------
//
// The proof DAG used to come from its own replay engine, a DFS over hash
// maps with a record loop of its own. It is kept here as the oracle for
// extract_proof, which records the depth-first checker's replay: the two
// must produce the same DAG node for node, and the same DOT and tracecheck
// bytes. The checker announces its clauses round by round, each round in
// ascending ID order, so the oracle lists the clauses each of its rounds
// built in that order too.
namespace reference {

/// DFS-based extraction mirroring the depth-first checker's rounds: the
/// final conflict's cone, then, at each fetch of an unbuilt antecedent,
/// the cones of that antecedent and of every antecedent still pending.
/// Keeps per-node bookkeeping (literals, depth, order).
class Extractor {
 public:
  Extractor(const Formula& f, trace::TraceReader& reader)
      : formula_(&f), reader_(&reader), level0_(reader.num_vars()) {}

  ProofDag run() {
    checker::check_header(*formula_, reader_->num_vars(),
                          reader_->num_original());
    load_trace();
    if (!final_id_.has_value()) {
      throw ProofError(
          "trace has no final conflicting clause; no proof to extract");
    }

    ProofDag dag;
    dag.num_original = reader_->num_original();

    // Build everything reachable from the final conflict, then replay the
    // empty-clause derivation and record it as the root node.
    build(*final_id_);
    close_round();

    ProofDag::Node root;
    root.sources.push_back(*final_id_);
    checker::CheckStats scratch_stats;
    const checker::ClauseFetcher fetch =
        [this, &root](ClauseId id) -> const checker::SortedClause& {
      const checker::SortedClause& c = build(id);
      // derive_final_clause fetches the final clause first, then one
      // antecedent per step, in order — exactly the root's source list.
      if (!root.sources.empty() && root.sources.back() != id) {
        root.sources.push_back(id);
      }
      return c;
    };
    const checker::PendingHook before_fetch =
        [this](ClauseId next, std::span<const std::uint64_t> pending) {
          if (memo_.contains(next)) return;
          build(next);
          for (const std::uint64_t entry : pending) {
            build(level0_.antecedent(checker::pending_literal(entry).var()));
          }
          close_round();
        };
    checker::SortedClause remaining =
        checker::derive_final_clause(*final_id_, fetch, level0_,
                                     scratch_stats, nullptr, &before_fetch);
    if (!remaining.empty()) {
      checker::validate_assumption_clause(remaining, level0_);
    }
    root.lits = std::move(remaining);

    root.id = next_free_id();
    root.depth = 0;
    for (const ClauseId s : root.sources) {
      root.depth = std::max(root.depth, depth_of(s) + 1);
    }

    // Emit nodes round by round, root last.
    dag.nodes.reserve(order_.size() + 1);
    for (const ClauseId id : order_) {
      ProofDag::Node n;
      n.id = id;
      n.lits = memo_.at(id);
      if (const auto it = derivations_.find(id); it != derivations_.end()) {
        n.sources = it->second;
      }
      n.depth = depth_.at(id);
      dag.nodes.push_back(std::move(n));
    }
    dag.root_id = root.id;
    dag.nodes.push_back(std::move(root));
    return dag;
  }

 private:
  [[nodiscard]] ClauseId num_original() const {
    return reader_->num_original();
  }

  [[nodiscard]] ClauseId next_free_id() const {
    ClauseId next = num_original();
    for (const auto& [id, sources] : derivations_) {
      next = std::max(next, id + 1);
    }
    return next;
  }

  [[nodiscard]] unsigned depth_of(ClauseId id) const { return depth_.at(id); }

  /// Lists the clauses built since the last call in ascending ID order.
  void close_round() {
    std::sort(order_.begin() + static_cast<std::ptrdiff_t>(round_start_),
              order_.end());
    round_start_ = order_.size();
  }

  void load_trace() {
    reader_->rewind();
    trace::Record rec;
    bool ended = false;
    while (!ended && reader_->next(rec)) {
      switch (rec.kind) {
        case trace::RecordKind::Derivation: {
          if (rec.id < num_original() || rec.sources.size() < 2) {
            throw ProofError("malformed derivation record " +
                             std::to_string(rec.id));
          }
          for (const ClauseId s : rec.sources) {
            if (s >= rec.id) {
              throw ProofError("derivation " + std::to_string(rec.id) +
                               " references a non-preceding source");
            }
          }
          if (!derivations_.emplace(rec.id, std::move(rec.sources)).second) {
            throw ProofError("clause " + std::to_string(rec.id) +
                             " derived twice");
          }
          break;
        }
        case trace::RecordKind::FinalConflict:
          final_id_ = rec.id;
          break;
        case trace::RecordKind::Level0:
          level0_.add(rec.var, rec.value, rec.antecedent);
          break;
        case trace::RecordKind::Assumption:
          level0_.add_assumption(rec.var, rec.value);
          break;
        case trace::RecordKind::End:
          ended = true;
          break;
      }
    }
    if (!ended) throw ProofError("trace truncated");
  }

  const checker::SortedClause& build(ClauseId id) {
    if (const auto it = memo_.find(id); it != memo_.end()) return it->second;
    if (id < num_original()) {
      checker::SortedClause canon =
          checker::canonicalize(formula_->clause(id));
      if (checker::is_tautology(canon)) {
        throw ProofError("original clause " + std::to_string(id) +
                         " is tautological");
      }
      depth_[id] = 0;
      order_.push_back(id);
      return memo_.emplace(id, std::move(canon)).first->second;
    }

    struct Frame {
      ClauseId id;
      const std::vector<ClauseId>* sources;
      std::size_t scan = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({id, &sources_of(id)});
    while (!stack.empty()) {
      Frame& f = stack.back();
      bool descended = false;
      while (f.scan < f.sources->size()) {
        const ClauseId s = (*f.sources)[f.scan];
        if (memo_.contains(s) || s < num_original()) {
          if (!memo_.contains(s)) build(s);  // original leaf
          ++f.scan;
          continue;
        }
        stack.push_back({s, &sources_of(s)});
        descended = true;
        break;
      }
      if (descended) continue;
      fold(f.id, *f.sources);
      stack.pop_back();
    }
    return memo_.at(id);
  }

  const std::vector<ClauseId>& sources_of(ClauseId id) {
    const auto it = derivations_.find(id);
    if (it == derivations_.end()) {
      throw ProofError("clause " + std::to_string(id) +
                       " is referenced but never derived");
    }
    return it->second;
  }

  void fold(ClauseId id, const std::vector<ClauseId>& sources) {
    chain_.start(memo_.at(sources[0]));
    unsigned depth = depth_.at(sources[0]);
    for (std::size_t i = 1; i < sources.size(); ++i) {
      const auto r = chain_.step(memo_.at(sources[i]));
      if (r.status != checker::ResolveStatus::Ok) {
        throw ProofError("invalid resolution while deriving clause " +
                         std::to_string(id));
      }
      depth = std::max(depth, depth_.at(sources[i]));
    }
    checker::SortedClause derived = chain_.take();
    std::sort(derived.begin(), derived.end());
    memo_.emplace(id, std::move(derived));
    depth_[id] = depth + 1;
    order_.push_back(id);
  }

  const Formula* formula_;
  trace::TraceReader* reader_;
  checker::Level0Table level0_;
  std::optional<ClauseId> final_id_;
  std::unordered_map<ClauseId, std::vector<ClauseId>> derivations_;
  std::unordered_map<ClauseId, checker::SortedClause> memo_;
  std::unordered_map<ClauseId, unsigned> depth_;
  std::vector<ClauseId> order_;
  std::size_t round_start_ = 0;  ///< where the open round begins in order_
  checker::ChainResolver chain_;
};

ProofDag extract_proof(const Formula& f, trace::TraceReader& reader) {
  try {
    return Extractor(f, reader).run();
  } catch (const checker::CheckFailure& e) {
    throw ProofError(e.what());
  } catch (const std::runtime_error& e) {
    throw ProofError(e.what());
  }
}

}  // namespace reference

TEST(ProofDag, RootIsEmptyClauseAndLast) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  ASSERT_FALSE(dag.nodes.empty());
  const auto& root = dag.nodes.back();
  EXPECT_EQ(root.id, dag.root_id);
  EXPECT_TRUE(root.lits.empty());
  EXPECT_FALSE(root.sources.empty());
}

TEST(ProofDag, TopologicalOrderHolds) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  std::set<ClauseId> emitted;
  for (const auto& n : dag.nodes) {
    for (const ClauseId s : n.sources) {
      EXPECT_TRUE(emitted.contains(s))
          << "node " << n.id << " uses source " << s << " before emission";
    }
    emitted.insert(n.id);
  }
}

TEST(ProofDag, EveryDerivedNodeIsTheResolventOfItsSources) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  std::unordered_map<ClauseId, const checker::SortedClause*> by_id;
  for (const auto& n : dag.nodes) by_id[n.id] = &n.lits;
  for (const auto& n : dag.nodes) {
    if (n.sources.empty()) continue;
    checker::ChainResolver chain;
    chain.start(*by_id.at(n.sources[0]));
    for (std::size_t i = 1; i < n.sources.size(); ++i) {
      ASSERT_EQ(chain.step(*by_id.at(n.sources[i])).status,
                checker::ResolveStatus::Ok)
          << "node " << n.id;
    }
    auto got = chain.take();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, n.lits) << "node " << n.id;
  }
}

TEST(ProofDag, LeavesAreOriginalClauses) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  for (const auto& n : dag.nodes) {
    if (n.sources.empty()) {
      EXPECT_LT(n.id, dag.num_original);
      EXPECT_EQ(n.depth, 0u);
      // Leaf literals match the canonical original clause.
      EXPECT_EQ(n.lits, checker::canonicalize(su.formula.clause(n.id)));
    } else {
      EXPECT_GT(n.depth, 0u);
    }
  }
}

TEST(ProofDag, DepthIsOnePlusMaxSourceDepth) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  std::unordered_map<ClauseId, unsigned> depth;
  for (const auto& n : dag.nodes) depth[n.id] = n.depth;
  for (const auto& n : dag.nodes) {
    if (n.sources.empty()) continue;
    unsigned expect = 0;
    for (const ClauseId s : n.sources) {
      expect = std::max(expect, depth.at(s) + 1);
    }
    EXPECT_EQ(n.depth, expect) << "node " << n.id;
  }
}

TEST(ProofDag, StatsAreConsistent) {
  const Solved su = solve_unsat(encode::pigeonhole(5));
  const ProofDag dag = extract(su);
  const ProofStats st = compute_stats(dag);
  EXPECT_EQ(st.leaves + st.derived, dag.nodes.size());
  EXPECT_GT(st.resolutions, 0u);
  EXPECT_GT(st.depth, 1u);
  EXPECT_GT(st.max_clause_width, 0u);
  EXPECT_GT(st.avg_clause_width, 0.0);
  EXPECT_LE(st.leaves, dag.num_original);
}

TEST(ProofDag, SatTraceRejected) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  EXPECT_THROW((void)extract_proof(f, r), ProofError);
}

TEST(ProofDag, IndexOfFindsNodes) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  const auto idx = dag.index_of(dag.root_id);
  ASSERT_NE(idx, ~std::size_t{0});
  EXPECT_EQ(dag.nodes[idx].id, dag.root_id);
  EXPECT_EQ(dag.index_of(999999), ~std::size_t{0});
}

TEST(Export, DotContainsRootAndEdges) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  std::ostringstream out;
  write_dot(out, dag);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("digraph proof"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Export, DotHonoursNodeBudget) {
  const Solved su = solve_unsat(encode::pigeonhole(5));
  const ProofDag dag = extract(su);
  DotOptions opts;
  opts.max_nodes = 10;
  std::ostringstream out;
  write_dot(out, dag, opts);
  // Count node declarations (lines starting with "  n<digit>... [").
  std::size_t node_count = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(" [") != std::string::npos &&
        line.find("->") == std::string::npos &&
        line.rfind("  n", 0) == 0 && line.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(line[3])) != 0) {
      ++node_count;
    }
  }
  EXPECT_LE(node_count, 10u);
}

/// IDs of the nodes a DOT document declares ("  n<id> [...];" lines).
std::unordered_set<ClauseId> declared_nodes(const std::string& dot) {
  std::unordered_set<ClauseId> ids;
  std::istringstream in(dot);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  n", 0) == 0 && line.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(line[3])) != 0 &&
        line.find("->") == std::string::npos) {
      ids.insert(static_cast<ClauseId>(std::stoull(line.substr(3))));
    }
  }
  return ids;
}

TEST(Export, DotBudgetKeepsTheNodesNearestTheRoot) {
  const Solved su = solve_unsat(encode::pigeonhole(8));
  const ProofDag dag = extract(su);
  DotOptions opts;  // the default budget of 512 nodes
  ASSERT_GT(dag.nodes.size(), opts.max_nodes);

  // Distance of every node from the root, following sources.
  std::unordered_map<ClauseId, std::size_t> index;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    index.emplace(dag.nodes[i].id, i);
  }
  std::unordered_map<ClauseId, std::size_t> dist{{dag.root_id, 0}};
  std::vector<ClauseId> frontier{dag.root_id};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const ClauseId id = frontier[head];
    for (const ClauseId s : dag.nodes[index.at(id)].sources) {
      if (dist.emplace(s, dist.at(id) + 1).second) frontier.push_back(s);
    }
  }

  std::ostringstream out;
  write_dot(out, dag, opts);
  const std::unordered_set<ClauseId> declared = declared_nodes(out.str());
  EXPECT_EQ(declared.size(), opts.max_nodes);
  EXPECT_TRUE(declared.contains(dag.root_id));
  std::size_t farthest_declared = 0;
  std::size_t nearest_undeclared = ~std::size_t{0};
  for (const auto& [id, d] : dist) {
    if (declared.contains(id)) {
      farthest_declared = std::max(farthest_declared, d);
    } else {
      nearest_undeclared = std::min(nearest_undeclared, d);
    }
  }
  EXPECT_LE(farthest_declared, nearest_undeclared);
}

TEST(Export, TraceCheckRoundTripStructure) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  const ProofDag dag = extract(su);
  std::ostringstream out;
  write_tracecheck(out, dag);

  // Parse back: every line is "<id> lits 0 antes 0"; the last has no lits.
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  std::string last;
  while (std::getline(in, line)) {
    ++lines;
    last = line;
    std::istringstream ls(line);
    long long id = 0;
    ASSERT_TRUE(static_cast<bool>(ls >> id));
    EXPECT_GT(id, 0);  // 1-based
    int zeros = 0;
    long long tok = 0;
    while (ls >> tok) {
      if (tok == 0) ++zeros;
    }
    EXPECT_EQ(zeros, 2) << line;
  }
  EXPECT_EQ(lines, dag.nodes.size());
  // Root line: "<id> 0 <sources> 0" — literal section empty.
  std::istringstream rl(last);
  long long id = 0, first = -1;
  rl >> id >> first;
  EXPECT_EQ(first, 0);
}

/// Property: proofs extract cleanly from random UNSAT instances.
class ProofSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProofSweep, RandomUnsatInstancesYieldConsistentDags) {
  const Formula f = encode::random_ksat(25, 150, 3, GetParam());
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  if (s.solve() != solver::SolveResult::Unsatisfiable) {
    GTEST_SKIP() << "instance happened to be satisfiable";
  }
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const ProofDag dag = extract_proof(f, r);
  const ProofStats st = compute_stats(dag);
  EXPECT_GT(st.leaves, 0u);
  EXPECT_GE(st.derived, 1u);
  EXPECT_TRUE(dag.nodes.back().lits.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofSweep,
                         ::testing::Values(3, 17, 91, 222, 777));

// ---- byte identity with the reference extraction --------------------------

std::string dot_of(const ProofDag& dag) {
  std::ostringstream out;
  write_dot(out, dag);
  return out.str();
}

std::string tracecheck_of(const ProofDag& dag) {
  std::ostringstream out;
  write_tracecheck(out, dag);
  return out.str();
}

/// extract_proof and the reference agree node for node (id, sources,
/// literals, depth), on the root ID, and in the DOT and tracecheck bytes.
void expect_matches_reference(const Formula& f, const trace::MemoryTrace& t) {
  trace::MemoryTraceReader r1(t);
  const ProofDag want = reference::extract_proof(f, r1);
  trace::MemoryTraceReader r2(t);
  const ProofDag got = extract_proof(f, r2);
  EXPECT_EQ(got.num_original, want.num_original);
  EXPECT_EQ(got.root_id, want.root_id);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    const ProofDag::Node& a = got.nodes[i];
    const ProofDag::Node& b = want.nodes[i];
    if (a.id != b.id || a.sources != b.sources || a.lits != b.lits ||
        a.depth != b.depth) {
      ADD_FAILURE() << "node " << i << ": got clause " << a.id << " depth "
                    << a.depth << ", want clause " << b.id << " depth "
                    << b.depth;
      return;
    }
  }
  EXPECT_EQ(dot_of(got), dot_of(want));
  EXPECT_EQ(tracecheck_of(got), tracecheck_of(want));
}

TEST(ProofDagOracle, PigeonholeMatchesReference) {
  for (unsigned holes = 4; holes <= 8; ++holes) {
    SCOPED_TRACE("php" + std::to_string(holes));
    const Solved su = solve_unsat(encode::pigeonhole(holes));
    expect_matches_reference(su.formula, su.trace);
  }
}

// `solve a.cnf --assume "-2 -3" --tracecheck` on `p cnf 3 2 / 1 2 0 /
// -1 3 0`: the root is the assumption clause (x2 x3), from the final
// conflicting clause 1 and the antecedent 0, under the trace's ID limit 2.
TEST(ProofDagOracle, AssumptionClauseRootMatchesReference) {
  Formula f(3);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(0), Lit::pos(2)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  const Lit assume[] = {Lit::neg(1), Lit::neg(2)};
  ASSERT_EQ(s.solve(assume), solver::SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();
  expect_matches_reference(f, t);
  trace::MemoryTraceReader r(t);
  const std::string tc = tracecheck_of(extract_proof(f, r));
  EXPECT_EQ(tc.substr(tc.rfind('\n', tc.size() - 2) + 1), "3 2 3 0 2 1 0\n")
      << tc;
}

// The last derivation (clause 9, after an ID gap) is unreachable from the
// final conflict: the root still takes the trace's ID limit, 10, not one
// past the DAG's highest node.
TEST(ProofDagOracle, RootTakesTheTraceIdLimitPastUnreachableDerivations) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::pos(0), Lit::neg(1)});
  f.add_clause({Lit::neg(0), Lit::neg(1)});
  trace::MemoryTrace t;
  t.num_vars = 2;
  t.num_original = 4;
  t.derivations = {{4, {0, 1}}, {5, {2, 3}}, {9, {0, 2}}};  // x1, -x1, x0
  t.has_final = true;
  t.final_conflict = 5;
  t.level0 = {{1, true, 4}};
  t.finished = true;
  expect_matches_reference(f, t);
  trace::MemoryTraceReader r(t);
  const ProofDag dag = extract_proof(f, r);
  EXPECT_EQ(dag.root_id, 10u);
  EXPECT_EQ(dag.nodes.back().sources, (std::vector<ClauseId>{5, 4}));
  EXPECT_EQ(dag.index_of(9), ~std::size_t{0});
}

/// A rejected trace throws ProofError carrying the depth-first checker's
/// own diagnostic.
TEST(ProofDagOracle, CorruptTracesThrowTheDepthFirstDiagnostic) {
  const Formula f = encode::pigeonhole(5);
  for (int k = 1; k <= static_cast<int>(trace::FaultKind::TruncateTrace);
       ++k) {
    const auto kind = static_cast<trace::FaultKind>(k);
    SCOPED_TRACE(trace::to_string(kind));
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter inner;
    trace::FaultInjector injector(inner, kind, /*seed=*/7);
    s.set_trace_writer(&injector);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    ASSERT_TRUE(injector.fired());
    const trace::MemoryTrace t = inner.take();
    trace::MemoryTraceReader r1(t);
    const checker::CheckResult df = checker::check_depth_first(f, r1);
    ASSERT_FALSE(df.ok);
    trace::MemoryTraceReader r2(t);
    try {
      (void)extract_proof(f, r2);
      ADD_FAILURE() << "corrupt trace extracted";
    } catch (const ProofError& e) {
      EXPECT_EQ(std::string(e.what()), df.error);
    }
  }
}

/// The differential harness's 500 seeded random 3-SAT instances, in the
/// same ten shards: every UNSAT trace extracts exactly as the reference
/// does, and every SAT trace is rejected by both.
class ProofDagOracleSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ProofDagOracleSeeds, DifferentialSeedsMatchReference) {
  constexpr int kInstancesPerShard = 50;
  const int shard = GetParam();
  int unsat_seen = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter w;
    s.set_trace_writer(&w);
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = w.take();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    if (solved == solver::SolveResult::Satisfiable) {
      trace::MemoryTraceReader r1(t);
      EXPECT_THROW((void)reference::extract_proof(f, r1), ProofError);
      trace::MemoryTraceReader r2(t);
      EXPECT_THROW((void)extract_proof(f, r2), ProofError);
      continue;
    }
    ASSERT_EQ(solved, solver::SolveResult::Unsatisfiable);
    ++unsat_seen;
    expect_matches_reference(f, t);
  }
  EXPECT_GT(unsat_seen, 0) << "shard " << shard << " exercised no UNSAT trace";
}

INSTANTIATE_TEST_SUITE_P(Shards, ProofDagOracleSeeds, ::testing::Range(0, 10));

}  // namespace
}  // namespace satproof::proof
