#ifndef GMTBENCH_CELLS_HPP
#define GMTBENCH_CELLS_HPP

/**
 * @file
 * The benchmark's inputs and output checks.
 *
 *  - fig8:     the fig8_speedup matrix, 11 kernels x {GREMIO, DSWP} x
 *              {COCO off, on}, full pipeline with simulation.
 *  - autotune: the fig8_autotuned matrix, 22 COCO cells, each as
 *              baseline and autotuned.
 *  - compile:  generated cells in three size bands x {GREMIO, DSWP} x
 *              {COCO off, on}, each run as gmt-lint does: codegen
 *              pipeline without a cache, then verify-mt with HB.
 *
 * The kernels of fig8 and autotune are fixed; the seed only shuffles
 * the cell order of a batch. The compile cells come from the seed.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/experiment.hpp"

namespace gmtbench
{

enum class Kind { Fig8, Autotune, Compile };

/** The seed whose compile cells are pinned in the expected file. */
inline constexpr uint64_t kDefaultSeed = 1;

/** Everything a batch runs, built at set-up. */
struct Inputs
{
    Kind kind = Kind::Fig8;
    uint64_t seed = kDefaultSeed;

    /** Cells in batch order. Compile cells run without simulation. */
    std::vector<gmt::ExperimentCell> cells;

    /** Compile only: faulting generator seeds skipped at screening. */
    int replaced_seeds = 0;

    /** Time spent building kernels (allWorkloads / generateWorkload). */
    double generate_ms = 0.0;
};

Inputs makeInputs(Kind kind, uint64_t seed, bool smoke);

/** A fresh input image of @p w: the train input, or the ref input. */
gmt::MemoryImage inputMemory(const gmt::Workload &w, bool ref);

/** "workload/SCHED[+COCO][+AT]", as the pass manager names cells. */
std::string cellId(const gmt::ExperimentCell &cell);

/** Static produce/consume instructions (sync forms included). */
uint64_t countComm(const gmt::MtProgram &prog);

/** Instructions over every thread of @p prog. */
uint64_t countInstrs(const gmt::MtProgram &prog);

/** What one compile cell's timed run yields (compared across batches). */
struct CompileResult
{
    uint64_t emitted_instrs = 0;
    uint64_t emitted_comm = 0;
    int queues = 0;
    int coco_iterations = 0;
    int hb_pairs = 0;
    int verify_errors = 0;

    bool operator==(const CompileResult &) const = default;
};

/**
 * One compile batch: per cell, PassManager::codegenPipeline() without a
 * cache, then verifyMtProgram with HB. When @p programs is non-null the
 * generated programs are kept (outside any timed region) for the
 * execution check.
 */
std::vector<CompileResult> runCompileBatch(
    const Inputs &in, std::vector<gmt::MtProgram> *programs = nullptr);

/** The per-cell values checked against the expected-results file. */
struct Outcome
{
    std::string id;
    uint64_t st_cycles = 0;
    uint64_t mt_cycles = 0;
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;
    int moves_accepted = 0;
    uint64_t emitted_comm = 0;

    bool operator==(const Outcome &) const = default;
};

/**
 * Outcomes of a fig8/autotune batch. Emitted communication comes from
 * the programs in @p runner's artifact cache, so call this on the
 * runner that produced @p results.
 */
std::vector<Outcome> pipelineOutcomes(
    const Inputs &in, const std::vector<gmt::PipelineResult> &results,
    gmt::ExperimentRunner &runner);

/**
 * Execution check of compile cells, outside the timed region: run
 * interpretMt against interpret on the ref input (live-outs and final
 * memory) and time both on the simulator. Cells whose check fails are
 * appended to @p failures and get no outcome.
 */
std::vector<Outcome> compileOutcomes(
    const Inputs &in, const std::vector<CompileResult> &results,
    const std::vector<gmt::MtProgram> &programs,
    std::vector<std::string> &failures);

/** Parsed expected-results file. */
struct Expected
{
    /** workload -> cell id -> outcome. */
    std::map<std::string, std::map<std::string, Outcome>> cells;

    /** Pinned compile cells: generated name -> Workload::digest. */
    std::map<std::string, std::string> digests;
};

Expected readExpected(const std::string &path);

/** Lines of the expected file for @p in's outcomes (regeneration). */
std::string formatExpected(const std::string &workload, const Inputs &in,
                           const std::vector<Outcome> &outcomes);

} // namespace gmtbench

#endif // GMTBENCH_CELLS_HPP
