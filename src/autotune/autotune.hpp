#ifndef GMT_AUTOTUNE_AUTOTUNE_HPP
#define GMT_AUTOTUNE_AUTOTUNE_HPP

/**
 * @file
 * Feedback-directed re-partitioning: close the profile -> schedule
 * loop. The autotuner takes one cell's schedule plus the simulator's
 * StallReport and iterates partition -> COCO -> simulate -> profile,
 * folding each round's stall attribution back into the next round's
 * scheduling decisions:
 *
 *  - stall-charged blocks bias DSWP's stage fills and GREMIO's
 *    busy/work scoring (PartitionFeedback::block_boost),
 *  - stall-charged queues raise the communication weight of the PDG
 *    arcs they carry (PartitionFeedback::arc_boost) and the cut cost
 *    of the blocks holding their placement points (a stall-boosted
 *    EdgeProfile re-cut through COCO),
 *  - boundary instructions (PDG SCCs) on the costliest queues are
 *    candidates to migrate between the pair's threads.
 *
 * Candidates run the pipeline's own back-half steps (runPartitioner,
 * placeCommunication, generateMtProgram, simulateChecked and
 * profileChecked below), with their own failure policy: one whose plan
 * validatePlan faults or that the static verifier (HB included)
 * rejects is not taken. The checked simulation is also the candidate's
 * oracle and counter: its live-outs, final memory and queue drain
 * must equal the single-threaded reference (a mismatch is fatal), and
 * its per-core counts become the Fig. 7 counts of the schedule. The
 * strictly best improvement at or above the relative epsilon is
 * accepted (simulated cycles are monotone non-increasing by
 * construction), and the loop stops when no candidate qualifies or
 * the iteration cap is hit. Candidate generation and acceptance read
 * only deterministic inputs and break ties in canonical candidate
 * order, so the tuned schedule, the move log, and the trajectory are
 * byte-identical at any job count and cache state.
 *
 * A schedule carries the decision records of the calls that built it
 * (COCO's or the default plan's placement record, the queue
 * binding's), so the tuned schedule's provenance is the record of the
 * candidate accepted last; the result adds the SCC-unit record of the
 * final partition.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/coco.hpp"
#include "mtcg/comm_plan.hpp"
#include "obs/provenance.hpp"
#include "obs/stall_report.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"
#include "runtime/mt_interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "sim/machine_config.hpp"

namespace gmt
{

class ThreadPool;

/** One complete schedule the loop holds or proposes. */
struct AutotuneSchedule
{
    ThreadPartition partition;
    CommPlan plan;
    int plan_coco_iterations = 0;
    MtProgram prog;
    std::vector<int> queue_of;
    uint64_t cycles = 0;

    /** Decision records of the calls that built `plan` and
     *  `queue_of`. The autotune pass fills the baseline's from its
     *  cell's artifacts; a caller that never reads them may leave
     *  them empty. */
    PlacementProvenance plan_prov;
    QueueProvenance queue_prov;
};

/** Autotuner hooks. The loop's thresholds are constants in
 *  autotune.cpp. */
struct AutotuneOptions
{
    /**
     * Execution-only test hook (never part of a cache key): called
     * with every accepted intermediate schedule, in acceptance order.
     */
    std::function<void(const AutotuneSchedule &)> on_accept;
};

/** Provenance of one considered move (accepted or rejected). */
struct AutotuneMove
{
    int iteration = 0;      ///< 1-based feedback round
    std::string kind;       ///< "recut" | "reweight" | "migrate"
    std::string detail;     ///< human-readable stall evidence
    int queue = -1;         ///< evidencing queue (migrate; else -1)
    uint64_t stall_cycles = 0; ///< evidence magnitude (cycles)
    int moved_instrs = 0;   ///< instructions whose thread changed
    uint64_t cycles = 0;    ///< simulated cycles (0 = not simulated)
    bool accepted = false;
    std::string rejected_because; ///< empty when accepted

    bool operator==(const AutotuneMove &) const = default;
};

/** Everything the loop produced. */
struct AutotuneResult
{
    AutotuneSchedule final_schedule;

    uint64_t baseline_cycles = 0;
    int iterations = 0; ///< feedback rounds executed
    int moves_accepted = 0;
    int moves_rejected = 0;

    /** Loop stopped because no candidate qualified (not the cap). */
    bool converged = false;

    /** Every considered move, in consideration order. */
    std::vector<AutotuneMove> moves;

    /** Simulated cycles: baseline, then after each accepted move. */
    std::vector<uint64_t> trajectory;

    /** Decision record of final_schedule.partition: one unit per PDG
     *  SCC (algorithm "DSWP+autotune" / "GREMIO+autotune"). */
    PartitionProvenance partition_prov;

    // Dynamic instruction counts of the final schedule, from its
    // checked simulation (the round-1 profile run of the baseline
    // when no move is accepted).
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;

    /** Cut-cache counts (CocoResult::warm_starts / cold_rebuilds)
     *  summed over the loop's own cocoOptimize calls. */
    uint64_t coco_warm_starts = 0;
    uint64_t coco_cold_rebuilds = 0;

    /** Execution-only: wall time of each feedback round; round 0 is
     *  cold (baseline profiling and SCC units), later rounds reuse
     *  those and skip duplicate candidates. */
    std::vector<double> iter_wall_ms;
};

/** Environment one autotune run needs (all pointers non-owning). */
struct AutotuneInputs
{
    const Function *f = nullptr;
    const Pdg *pdg = nullptr;
    const ControlDependence *cd = nullptr;
    const EdgeProfile *profile = nullptr;

    /** Partitioner for reweight candidates: GREMIO (else DSWP). */
    bool gremio = false;
    int num_threads = 2;

    bool use_coco = false;
    CocoOptions coco;

    /** Resolved per-queue capacity (driver default already applied). */
    int queue_capacity = 32;
    int max_queues = 0;

    MachineConfig machine;
    SimEngine engine = SimEngine::Fast;

    /** Reference input + single-threaded truth (equivalence oracle). */
    const std::vector<int64_t> *ref_args = nullptr;
    std::function<MemoryImage()> make_memory;
    const std::vector<int64_t> *st_live_outs = nullptr;
    const MemoryImage *st_final_mem = nullptr;

    /** Shared worker pool for COCO's cut solver (may be null). */
    ThreadPool *pool = nullptr;
    int coco_jobs = 1;

    /** Cell the oracle's fatal errors name ("ks/GREMIO+COCO+AT"). */
    std::string cell;
};

/**
 * The profiled checked run of a schedule (obs-profile, each feedback
 * round): simulateChecked with a SimProfile attached, which must
 * reproduce @p cycles and conserve its stall charges, else it panics
 * naming @p cell. @p timeline and @p run (the result) may be null.
 */
StallReport profileChecked(const SimCheck &chk, const MtProgram &prog,
                           const CommPlan &plan,
                           const std::vector<int> &queue_of,
                           uint64_t cycles, const std::string &cell,
                           TimelineBuilder *timeline = nullptr,
                           SimResult *run = nullptr);

/**
 * Run the feedback loop starting from @p baseline (the standard
 * pipeline's schedule and its simulated cycles).
 */
AutotuneResult autotuneSchedule(const AutotuneInputs &in,
                                const AutotuneSchedule &baseline,
                                const AutotuneOptions &opts = {});

/**
 * Canonical JSON of the move log + trajectory (schema:1, fixed key
 * order, no execution-only fields) — the byte representation the
 * determinism tests compare and gmt-explain prints.
 */
std::string autotuneMovesJson(const AutotuneResult &r);

} // namespace gmt

#endif // GMT_AUTOTUNE_AUTOTUNE_HPP
