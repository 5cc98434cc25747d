#ifndef GMT_WORKLOADS_GENERATE_HPP
#define GMT_WORKLOADS_GENERATE_HPP

/**
 * @file
 * Seeded random workload generator and greedy repro reducer — the
 * instance factory behind tools/gmt_fuzz.cpp (ROADMAP item 4: mass-
 * produced stress corpus for the schedulers).
 *
 * Generated cells are always valid and always terminate:
 *  - the CFG is reducible by construction (structured if/else hammocks
 *    and natural while loops, like tests/testgen.cpp);
 *  - every loop is bounded: the single outer loop trips `n` times
 *    (the cell's argument), inner whiles count down from `|x| %
 *    max_loop_trips`;
 *  - every address is `base + |x| % region`, so memory accesses never
 *    leave the image;
 *  - alias classes are sound: class k accesses stay inside class k's
 *    region of the image, disjoint from every other class, and only
 *    kAliasAny roams the whole image. Two differently-classed
 *    accesses therefore never touch the same cell, which is exactly
 *    the contract mem_dep derives dependences from — so the
 *    fast==reference and MT==ST oracles hold on generated cells by
 *    construction, and any violation the fuzzer finds is a real
 *    scheduler bug.
 *
 * The returned function is canonicalized through print->parse, so its
 * arena order matches block order and a dumped `.gmt` repro reloads
 * bit-identically (same InstrIds, same digest).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "workloads/workload.hpp"

namespace gmt
{

/** Distribution knobs for generateWorkload. */
struct GenOptions
{
    int max_depth = 3;         ///< structured nesting depth
    int max_stmts = 6;         ///< max statements per sequence
    int pool_regs = 8;         ///< size of the working register pool
    int num_alias_classes = 3; ///< distinct non-Any classes
    int64_t class_cells = 64;  ///< image cells per alias-class region
    double mem_prob = 0.35;    ///< memory-op probability per statement
    int max_loop_trips = 8;    ///< inner bounded-loop trip cap
    int64_t train_iters = 12;  ///< outer-loop trips, train input
    int64_t ref_iters = 64;    ///< outer-loop trips, ref input
    int fill_pairs = 24;       ///< random nonzero input cells
};

/**
 * Generate the cell for @p seed: name "gen<seed>", verified function,
 * sparse random fill, train/ref args = the outer trip counts. The
 * same (seed, opts) always yields the same cell.
 */
Workload generateWorkload(uint64_t seed, const GenOptions &opts = {});

/** Does this candidate still reproduce the failure under reduction? */
using FailurePredicate = std::function<bool(const Workload &)>;

/**
 * Greedily shrink @p w while @p fails stays true: branches collapse
 * to jumps (unreachable blocks pruned), non-terminator instructions
 * are deleted in exponentially shrinking batches, live-outs and fill
 * cells are dropped. Candidates are pre-screened (verifier clean,
 * terminates quickly under the single-threaded interpreter) before
 * the predicate pays for a pipeline run, and the result is
 * canonicalized through the cell text so the dumped repro reloads
 * bit-identically. @p fails must be true of @p w itself.
 */
Workload reduceWorkload(const Workload &w, const FailurePredicate &fails);

/** A damaged copy of a `.gmt` text and what damaged it. */
struct TextMutant
{
    std::string text;
    /** "byte-flip", "truncate", "line-splice", "reg-id", "queue-id" or
     *  "label-id"; "none" for an empty text, returned unchanged. */
    std::string kind;
};

/**
 * Damage the `.gmt` text @p text, the same way for the same @p seed:
 * flip 1-4 bits, truncate, copy or move 1-3 lines, or write an
 * out-of-range register number, a communication instruction with an
 * out-of-range queue id, or a branch target that names another or no
 * block. Half the mutants aim at the function body, which the memory
 * lines of a cell otherwise outweigh. workloadFromText must load every
 * mutant or reject it with a FatalError that names a line.
 */
TextMutant mutateCellText(std::string_view text, uint64_t seed);

} // namespace gmt

#endif // GMT_WORKLOADS_GENERATE_HPP
