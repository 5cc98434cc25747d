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
 * its per-core counts become the cell's MtRunArtifact.
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
#include "obs/provenance.hpp"
#include "obs/stall_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

class ThreadPool;

/** Timing + counters for one executed pass. */
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
};

struct PlanArtifact
{
    CommPlan plan;

    /** COCO repeat-until iterations (0 for the default placement). */
    int coco_iterations = 0;
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
};

/** Single-threaded reference run (every MT oracle's truth). */
struct StRefArtifact
{
    std::vector<int64_t> live_outs;
    MemoryImage final_mem;
};

/**
 * Dynamic instruction counts of the MT run, summed over threads
 * (oracle already passed). Counted by interpretMt in the mt-run pass
 * of a counts-only cell, by the timing simulator in the sim pass of a
 * simulated one.
 */
struct MtRunArtifact
{
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;

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

/**
 * Pre-decoded instruction streams for the timing simulator.
 * Decoding is machine-independent (sim/decoded_program.hpp), so the
 * artifacts are keyed on the program alone and shared across every
 * point of a machine-parameter sweep (ablate_comm_latency etc.).
 */
struct StDecodedArtifact
{
    DecodedProgram prog; ///< the single-threaded original, 1 thread
};

struct MtDecodedArtifact
{
    DecodedProgram prog;
};

struct StSimArtifact
{
    uint64_t cycles = 0;
    SimEngineStats engine;
};

/** The simulated MT run: its cycles and, checked against the ST
 *  reference, its dynamic counts (what the sim pass publishes as the
 *  cell's MtRunArtifact). */
struct MtSimArtifact
{
    uint64_t cycles = 0;
    SimEngineStats engine;
    MtRunArtifact counts;
};

/**
 * Observability rollup of one cell (the obs-profile pass): the raw
 * stall attribution and execution timeline of an instrumented MT
 * timing run, plus the ranked per-queue / per-block report
 * (obs/stall_report.hpp). The attribution is engine-independent and
 * conserved — it sums exactly to the aggregate CoreStats counters,
 * checked at build time. In counts-only mode (simulate off) only the
 * dynamic instruction counts below are filled, which is all
 * bench/fig1 needs.
 */
struct ObsProfileArtifact
{
    bool simulated = false;

    SimProfile profile;   ///< raw (core, block[, queue]) charges
    SimTimeline timeline; ///< per-core intervals + queue occupancy
    StallReport report;   ///< ranked rollup (empty when !simulated)

    // Dynamic instruction counts, copied from the MtRunArtifact
    // (always filled; the fig1 breakdown sources them from here).
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;

    uint64_t communication() const { return reg_comm + mem_sync; }
};

/**
 * The autotune pass's output (src/autotune/): the feedback loop's
 * result — final schedule, move log, trajectory — plus the canonical
 * move-log JSON (autotuneMovesJson) the determinism tests compare and
 * gmt-explain prints. The pass also republishes the tuned schedule
 * into the partition/plan/prog/mt_run/mt_sim slots, so everything
 * downstream (obs-profile, obs-provenance, the result) describes the
 * tuned schedule.
 */
struct AutotuneArtifact
{
    AutotuneResult result;
    std::string moves_json;
};

/**
 * Decision provenance of one cell (the obs-provenance pass): the full
 * Provenance record re-derived by serial instrumented re-runs of the
 * partitioner, COCO, and the queue allocator — each asserted equal to
 * the pipeline's own artifacts, so a cache-hit cell carries exactly
 * the provenance of the run that populated the cache. canonical_json
 * is the byte representation (schema:1, fixed key order) determinism
 * tests and gmt-explain --diff compare; it excludes execution-only
 * fields (warm/cold solve), which live only in `prov`.
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
    std::shared_ptr<const StDecodedArtifact> st_decoded;
    std::shared_ptr<const MtDecodedArtifact> mt_decoded;
    std::shared_ptr<const StSimArtifact> st_sim;
    std::shared_ptr<const MtSimArtifact> mt_sim;
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
