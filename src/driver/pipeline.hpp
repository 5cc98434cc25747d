#ifndef GMT_DRIVER_PIPELINE_HPP
#define GMT_DRIVER_PIPELINE_HPP

/**
 * @file
 * End-to-end experiment pipeline, one call per (workload, scheduler,
 * COCO on/off) cell of the paper's figures:
 *
 *   build IR -> split critical edges -> verify -> profile on train
 *   input -> PDG -> partition (DSWP or GREMIO) -> placement (MTCG
 *   default or COCO) -> MTCG -> run on ref input (MT interpreter:
 *   dynamic instruction counts + equivalence oracle) -> timing
 *   simulation (cycles, vs the single-threaded baseline).
 */

#include <cstdint>
#include <string>

#include "autotune/autotune.hpp"
#include "coco/coco.hpp"
#include "sim/cmp_simulator.hpp"
#include "sim/machine_config.hpp"
#include "workloads/workload.hpp"

namespace gmt
{

/** Which GMT partitioner to run. */
enum class Scheduler { Dswp, Gremio };

const char *schedulerName(Scheduler s);

/** Pipeline configuration. */
struct PipelineOptions
{
    Scheduler scheduler = Scheduler::Dswp;
    int num_threads = 2;

    /** Apply COCO (otherwise the default MTCG placement). */
    bool use_coco = false;
    CocoOptions coco;

    /**
     * Worker tasks for COCO's cut solver (nested in the experiment
     * runner's shared pool); <= 1 solves serially. The comm plan is
     * bit-identical at any value — this is an execution resource, not
     * a result axis, so it is deliberately absent from planKey().
     */
    int coco_jobs = 1;

    MachineConfig machine = MachineConfig::paperDefault();

    /** Run the timing simulation (skippable for instruction-count
     *  only experiments). */
    bool simulate = true;

    /**
     * Timing-simulator mode: the issue loop with wait records and
     * cycle skipping by default, or the same loop sweeping every
     * cycle (SimEngine::Reference), which differential tests and
     * gmt-fuzz select. Results are bit-identical by contract.
     */
    SimEngine sim_engine = SimEngine::Fast;

    /**
     * Queue depth override; 0 picks the paper's per-scheduler default
     * (32 for DSWP, 1 for GREMIO).
     */
    int queue_capacity = 0;

    /**
     * Architected queue budget for the queue allocator (paper
     * footnote 1); 0 = one queue per placement.
     */
    int max_queues = 0;

    /**
     * Use the static (loop-depth) profile estimate instead of the
     * train-input run — the paper cites [28] for static estimates
     * being nearly as accurate.
     */
    bool static_profile = false;

    /**
     * Re-check IR and partition invariants between passes (pass
     * manager only; the in-pass validations always run).
     */
    bool check_invariants = false;

    /**
     * Statically verify the generated MT program (dependence
     * preservation, queue balance, deadlock freedom — see
     * mtverify/mtverify.hpp) before running it. On by default; the
     * bench harness exposes --no-mtverify to skip it.
     */
    bool verify_mt = true;

    /**
     * Within verify-mt, run the happens-before race check (theorem 4,
     * mtverify/hb.hpp). On by default; gmt-lint exposes --no-hb.
     */
    bool verify_hb = true;

    /**
     * Run the obs-profile pass: re-simulate the MT program with stall
     * attribution and timeline collection attached and publish the
     * rollup as an ObsProfileArtifact (dies if the attribution does
     * not sum exactly to the aggregate stall counters). Skipped when
     * simulate is off (nothing to attribute). Also forced on by an
     * attached trace collector.
     */
    bool profile_stalls = false;

    /**
     * Run the obs-provenance pass: assemble the decision records the
     * partition, placement, mtcg and queue-alloc passes (or the
     * autotune pass) kept beside their artifacts — partitioner steps,
     * COCO cuts, queue shares — and publish them as a
     * ProvenanceArtifact (obs/provenance.hpp). Purely observational:
     * the records are kept on every run, and plans, programs, and
     * results are byte-identical with this on or off.
     */
    bool record_provenance = false;

    /**
     * Run the autotune pass: close the profile -> schedule loop
     * (src/autotune/) starting from this cell's schedule, folding the
     * simulator's stall attribution back into re-cuts, re-partitions,
     * and boundary migrations until no candidate improves simulated
     * cycles by the loop's relative epsilon or its round cap is hit
     * (both constants in autotune.cpp, so on/off is the pass's only
     * cache-key axis). Requires simulate; the downstream artifacts
     * (program, cycles, counts, provenance) describe the tuned
     * schedule, and the result carries both baseline and tuned
     * cycles. Deterministic at any jobs/cache setting.
     */
    bool autotune = false;
    /** The loop's execution-only hooks (never keyed). */
    AutotuneOptions autotune_opts;
};

/** Everything the figures need from one cell. */
struct PipelineResult
{
    std::string workload;
    std::string scheduler;
    bool coco = false;

    // Reference-input dynamic instruction counts (MT interpreter).
    uint64_t computation = 0;         ///< original-instruction copies
    uint64_t duplicated_branches = 0; ///< control-dep replicas
    uint64_t reg_comm = 0;            ///< produce + consume
    uint64_t mem_sync = 0;            ///< produce.sync + consume.sync

    uint64_t communication() const { return reg_comm + mem_sync; }
    uint64_t total() const
    {
        return computation + duplicated_branches + communication();
    }

    /** Cross-thread memory dependences present in the PDG? */
    bool has_mem_deps = false;

    // Timing (reference input).
    uint64_t st_cycles = 0;
    uint64_t mt_cycles = 0;
    double speedup() const
    {
        return mt_cycles ? static_cast<double>(st_cycles) /
                               static_cast<double>(mt_cycles)
                         : 0.0;
    }

    /** COCO repeat-until iterations (0 when COCO is off). */
    int coco_iterations = 0;

    // Autotune (all zero when the pass is off). mt_cycles above is
    // the TUNED cycle count when autotuning ran.
    bool autotuned = false;
    uint64_t baseline_mt_cycles = 0; ///< pre-autotune mt_cycles
    int autotune_iterations = 0;
    int autotune_moves_accepted = 0;
    int autotune_moves_rejected = 0;
    bool autotune_converged = false;

    /** Field-wise equality (the parallel-vs-serial determinism oracle). */
    bool operator==(const PipelineResult &) const = default;
};

/**
 * Run the full pipeline. Throws (via the library's fatal/panic) if
 * anything fails; asserts that the generated code's observable
 * behaviour matches the single-threaded reference on the ref input.
 */
PipelineResult runPipeline(const Workload &workload,
                           const PipelineOptions &opts);

} // namespace gmt

#endif // GMT_DRIVER_PIPELINE_HPP
