#ifndef GMT_DRIVER_PASS_MANAGER_HPP
#define GMT_DRIVER_PASS_MANAGER_HPP

/**
 * @file
 * The staged pass pipeline behind runPipeline(): a PipelineContext
 * owns one cell's artifacts, a PassManager runs named passes over it
 * with per-pass wall-clock timing and counters, and an optional
 * ArtifactCache shares the artifacts between cells that agree on the
 * option prefix feeding each stage.
 *
 * The standard pipeline is the paper's flow, one named pass per
 * stage:
 *
 *   build-ir -> edge-split -> verify -> profile -> pdg -> partition
 *     -> placement -> mtcg -> queue-alloc -> verify-mt -> mt-run
 *     -> sim -> autotune -> obs-profile -> obs-provenance
 *
 * The generated program executes once per cell. mt-run always builds
 * the single-threaded reference; it MT-interprets the program (oracle
 * + dynamic counts) only in counts-only cells. In simulated cells the
 * sim pass's timing run is the oracle and the counter: its live-outs,
 * final memory and queue drain are checked against the reference and
 * its cycles and per-core counts become the cell's MtRunArtifact.
 *
 * The partition, placement, mtcg, sim and obs-profile passes call the
 * routines the autotuner's candidates call (runPartitioner,
 * placeCommunication, generateMtProgram, simulateChecked,
 * profileChecked), adding caching, stats and a fatal naming the cell.
 *
 * Passes communicate exclusively through the context's immutable
 * shared artifacts, which is what makes both the caching and the
 * parallel experiment runner safe: a cached artifact is never
 * mutated, only replaced downstream by a new artifact under a more
 * specific key.
 */

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/edge_profile.hpp"
#include "driver/artifact_cache.hpp"
#include "driver/pipeline.hpp"
#include "driver/stats.hpp"
#include "mtcg/comm_plan.hpp"
#include "mtverify/mtverify.hpp"
#include "obs/provenance.hpp"
#include "obs/stall_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

class ThreadPool;

/**
 * Timing + counters for one executed pass: the one home of the
 * cell's per-pass counts. Work counters (a call's own counts, e.g.
 * COCO's coco_warm_starts / coco_cold_rebuilds, the interpreters'
 * dyn_instrs) are added only by the execution that computed the
 * artifact; a cache hit adds none, so a batch's records sum to the
 * work the batch did.
 */
struct PassStats
{
    std::string pass;
    double wall_ms = 0.0;

    /** Artifact came from the cache (the pass did no real work). */
    bool cached = false;

    /** Named scalar counters (pdg arcs, queues, iterations, ...). */
    std::vector<std::pair<std::string, int64_t>> counters;

    void add(const std::string &name, int64_t value)
    {
        counters.emplace_back(name, value);
    }

    /** Counter @p name's value; 0 when the pass did not add it. */
    int64_t
    value(const std::string &name) const
    {
        for (const auto &[n, v] : counters)
            if (n == name)
                return v;
        return 0;
    }
};

// Immutable artifacts, shared between cells via the ArtifactCache.

/** Verified, edge-split copy of the workload function. */
struct IrArtifact
{
    Function func{""};
};

struct ProfileArtifact
{
    EdgeProfile profile;
};

/** PDG bundled with the CFG analyses built on the same Function. */
struct PdgArtifact
{
    /** Keeps the Function the Pdg points into alive. */
    std::shared_ptr<const IrArtifact> ir;
    Pdg pdg;
    DominatorTree pdom;
    ControlDependence cd;
};

struct PartitionArtifact
{
    ThreadPartition partition;

    /** Any cross-thread memory dependence in the PDG? */
    bool has_mem_deps = false;

    /** The partitioner's record (SCC units after autotune). */
    PartitionProvenance prov;
};

struct PlanArtifact
{
    CommPlan plan;

    /** COCO repeat-until iterations (0 for the default placement). */
    int coco_iterations = 0;

    /** COCO's record, or the default plan's "mtcg-default" one. */
    PlacementProvenance prov;
};

struct ProgramArtifact
{
    MtProgram prog;

    /**
     * Queue assigned to each plan placement (the witness the MT
     * verifier checks emission against). Identity after mtcg; the
     * multiplexed assignment after queue-alloc.
     */
    std::vector<int> queue_of;

    /** Why each queue exists: the record assignQueues made beside
     *  queue_of. */
    QueueProvenance queues;
};

/** Single-threaded reference run (every MT oracle's truth). */
struct StRefArtifact
{
    std::vector<int64_t> live_outs;
    MemoryImage final_mem;
};

/**
 * The cell's one MT execution, its oracle already passed: dynamic
 * instruction counts summed over threads and, when the execution was
 * a timing run, its cycles. interpretMt makes it in the mt-run pass of
 * a counts-only cell (cycles 0), the timing simulator in the sim pass
 * of a simulated one, and the autotune pass republishes the tuned
 * schedule's.
 */
struct MtRunArtifact
{
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;

    /** Simulated cycles; 0 in a counts-only cell. */
    uint64_t cycles = 0;
    SimEngineStats engine;

    /** Fold one thread's counts in. */
    void
    add(const ThreadStats &st)
    {
        computation += st.computation;
        duplicated_branches += st.duplicated_branches;
        reg_comm += st.produces + st.consumes;
        mem_sync += st.produce_syncs + st.consume_syncs;
    }
};

struct StSimArtifact
{
    uint64_t cycles = 0;
    SimEngineStats engine;
};

/**
 * Observability rollup of one simulated cell (the obs-profile pass):
 * the execution timeline of an instrumented MT timing run and the
 * ranked per-queue / per-block report (obs/stall_report.hpp) built
 * from its stall attribution. The attribution is engine-independent
 * and conserved — it sums exactly to the aggregate CoreStats
 * counters, checked at build time. The cell's dynamic instruction
 * counts live on its PipelineResult, not here.
 */
struct ObsProfileArtifact
{
    SimTimeline timeline; ///< per-core intervals + queue occupancy
    StallReport report;   ///< ranked rollup
};

/**
 * The autotune pass's output (src/autotune/): the feedback loop's
 * result — final schedule with its decision records, move log,
 * trajectory — plus the canonical move-log JSON (autotuneMovesJson)
 * the determinism tests compare and gmt-explain prints. The pass also
 * republishes the tuned schedule into the partition/plan/prog/mt_run
 * slots (mt_run with the tuned cycles and the AutotuneResult counts),
 * so everything downstream (obs-profile, obs-provenance, the result)
 * describes the tuned schedule.
 */
struct AutotuneArtifact
{
    AutotuneResult result;
    std::string moves_json;
};

/**
 * Decision provenance of one cell (the obs-provenance pass): the
 * partition, plan and program artifacts' records assembled into one
 * Provenance. Each record was made by the call that built its
 * artifact, so a cache-hit cell carries exactly the provenance of the
 * run that populated the cache. canonical_json is the byte
 * representation (schema:1, fixed key order) determinism tests and
 * gmt-explain --diff compare.
 */
struct ProvenanceArtifact
{
    Provenance prov;
    std::string canonical_json;
};

/**
 * Everything one cell's pass pipeline reads and produces. The
 * context is single-threaded; sharing happens only through the
 * (thread-safe) cache and the immutable artifacts it returns.
 */
struct PipelineContext
{
    PipelineContext(const Workload &w, const PipelineOptions &o)
        : workload(&w), opts(o)
    {
    }

    const Workload *workload;
    PipelineOptions opts;

    /** Optional cross-cell artifact cache (may be null). */
    ArtifactCache *cache = nullptr;

    /** Optional structured stats sink (may be null). */
    StatsSink *stats = nullptr;

    /**
     * Optional Chrome-trace collector (may be null). When attached,
     * PassManager::run() emits one span per executed pass and the
     * obs-profile pass — forced on by the collector — adds the cell's
     * simulator lanes.
     */
    TraceCollector *trace = nullptr;

    /**
     * Optional shared worker pool (may be null). Passes with
     * deterministic internal parallelism (placement's COCO cut
     * solver) nest their tasks here via TaskGroup, composing with the
     * experiment runner's cell-level tasks without oversubscription.
     */
    ThreadPool *pool = nullptr;

    // Stage artifacts, filled in pipeline order.
    std::shared_ptr<const IrArtifact> ir;
    std::shared_ptr<const ProfileArtifact> profile;
    std::shared_ptr<const PdgArtifact> pdg;
    std::shared_ptr<const PartitionArtifact> partition;
    std::shared_ptr<const PlanArtifact> plan;
    std::shared_ptr<const ProgramArtifact> prog;
    std::shared_ptr<const StRefArtifact> st_ref;
    std::shared_ptr<const MtRunArtifact> mt_run;
    std::shared_ptr<const StSimArtifact> st_sim;
    std::shared_ptr<const AutotuneArtifact> autotune;
    std::shared_ptr<const ObsProfileArtifact> obs;
    std::shared_ptr<const ProvenanceArtifact> prov;

    /** Assembled by PassManager::run() after the last pass. */
    PipelineResult result;

    /** One entry per executed pass, in execution order. */
    std::vector<PassStats> pass_stats;

    /** "workload/SCHED[+COCO]" — stable id used in stats records. */
    std::string cellId() const;

    /**
     * Cache-aware compute: with a cache attached, defer to
     * getOrCompute under @p key; without one, just run @p compute.
     * Records hit/miss into @p ps.
     */
    template <typename T>
    std::shared_ptr<const T>
    cached(const std::string &key,
           const std::function<std::shared_ptr<const T>()> &compute,
           PassStats &ps)
    {
        if (!cache) {
            ps.cached = false;
            return compute();
        }
        bool hit = false;
        auto value = cache->getOrCompute<T>(key, compute, &hit);
        ps.cached = hit;
        return value;
    }
};

/** The MT verifier's input for @p ctx's codegen artifacts. */
MtVerifyInput mtVerifyInput(const PipelineContext &ctx, bool check_hb);

/**
 * An ordered list of named passes over a PipelineContext. run()
 * times every pass, appends its PassStats to the context, emits a
 * stats record per pass (when a sink is attached), optionally
 * re-checks IR/partition invariants between passes
 * (PipelineOptions::check_invariants), and assembles the final
 * PipelineResult.
 */
class PassManager
{
  public:
    using PassFn = std::function<void(PipelineContext &, PassStats &)>;

    struct Pass
    {
        std::string name;
        PassFn run;
    };

    /** Append a pass; order of addition is execution order. */
    void addPass(std::string name, PassFn fn);

    const std::vector<Pass> &passes() const { return passes_; }

    /** Names in execution order (tests, docs). */
    std::vector<std::string> passNames() const;

    /** Run every pass in order and finalize ctx.result. */
    void run(PipelineContext &ctx) const;

    /** The paper's full pipeline (the 15 standard passes). */
    static PassManager standardPipeline();

    /**
     * The code-generation prefix of the standard pipeline: build-ir
     * through queue-alloc, without verification, execution, or
     * simulation. gmt-lint uses this to materialize a cell's
     * artifacts and then run the MT verifier itself to collect (not
     * die on) diagnostics.
     */
    static PassManager codegenPipeline();

  private:
    std::vector<Pass> passes_;
};

// Cache-key builders (exposed for tests; see artifact_cache.hpp for
// the key discipline). Each returns the key of the stage's artifact
// for this context's workload + option prefix.
std::string irKey(const PipelineContext &ctx);
std::string profileKey(const PipelineContext &ctx);
std::string pdgKey(const PipelineContext &ctx);
std::string partitionKey(const PipelineContext &ctx);
std::string planKey(const PipelineContext &ctx);
std::string mtcgKey(const PipelineContext &ctx);
std::string queueAllocKey(const PipelineContext &ctx);
std::string autotuneKey(const PipelineContext &ctx);
std::string obsProfileKey(const PipelineContext &ctx);
std::string provenanceKey(const PipelineContext &ctx);
std::string machineKey(const MachineConfig &m);

/**
 * machineKey minus the synchronization-array axes (sa_queues,
 * sa_ports, sa_latency, queue_capacity). A single-threaded run never
 * touches the sync array, so its simulation artifact is keyed on
 * this prefix and shared across SA-parameter sweeps
 * (ablate_comm_latency, ablate_queue_size).
 */
std::string coreMachineKey(const MachineConfig &m);

/** Resolved queue capacity (option override or per-scheduler default). */
int resolvedQueueCapacity(const PipelineOptions &opts);

} // namespace gmt

#endif // GMT_DRIVER_PASS_MANAGER_HPP
