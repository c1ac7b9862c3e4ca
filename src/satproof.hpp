#pragma once

/// Umbrella header: the whole public API of satproof.
///
/// The library reproduces Zhang & Malik, "Validating SAT Solvers Using an
/// Independent Resolution-Based Checker" (DATE 2003) and its surrounding
/// ecosystem. Components (each usable on its own — include the individual
/// headers to keep compile times down):
///
///   cnf       literals, formulas, DIMACS I/O, model verification
///   solver    CDCL search with resolution-trace generation + assumptions
///   simplify  traceable preprocessing (subsume / strengthen / eliminate)
///   trace     the trace formats (memory / ASCII / binary) + fault injection
///   checker   the independent checkers (depth-first / breadth-first / window)
///   proof     proof DAGs: metrics, export, trimming, RUP, interpolation
///   core      unsatisfiable cores: extract, iterate, minimize
///   circuit   netlists, word ops, Tseitin, miters, rewriting, sorting nets
///   bmc       sequential circuits and bounded model checking
///   encode    benchmark families and the reproduction suite
///   util      PRNG, timers, varints, byte accounting

#include "src/bmc/counter.hpp"
#include "src/bmc/rotator.hpp"
#include "src/bmc/sequential.hpp"
#include "src/bmc/unroll.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/common.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/resolution.hpp"
#include "src/checker/use_count.hpp"
#include "src/circuit/miter.hpp"
#include "src/circuit/netlist.hpp"
#include "src/circuit/rewrite.hpp"
#include "src/circuit/sorting.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/circuit/words.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/cnf/formula.hpp"
#include "src/cnf/model.hpp"
#include "src/cnf/types.hpp"
#include "src/core/unsat_core.hpp"
#include "src/encode/cardinality.hpp"
#include "src/encode/coloring.hpp"
#include "src/encode/fpga_routing.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/planning.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/export.hpp"
#include "src/proof/interpolant.hpp"
#include "src/proof/proof_dag.hpp"
#include "src/proof/rup.hpp"
#include "src/proof/trim.hpp"
#include "src/simplify/pipeline.hpp"
#include "src/simplify/preprocessor.hpp"
#include "src/solver/options.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/events.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"
#include "src/util/mem_tracker.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/timer.hpp"
#include "src/util/varint.hpp"
