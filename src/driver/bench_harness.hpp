#ifndef GMT_DRIVER_BENCH_HARNESS_HPP
#define GMT_DRIVER_BENCH_HARNESS_HPP

/**
 * @file
 * Shared command-line harness for the bench binaries: every figure
 * and ablation driver accepts the same flags and runs its cell grid
 * through one parallel, artifact-cached ExperimentRunner.
 *
 *   --jobs N        worker threads (default: hardware threads)
 *   --serial        shorthand for --jobs 1
 *   --coco-jobs N   nested tasks for COCO's cut solver (default 1 =
 *                   serial; the plan is bit-identical at any value)
 *   --no-cache      recompute every artifact (the seed behaviour)
 *   --stats FILE    per-pass / per-cell JSONL records (see stats.hpp)
 *   --only CSV      restrict to the named workloads (e.g. ks,mcf)
 *   --quiet         suppress the run summary line
 *   --no-mtverify   skip the static verify-mt pass on generated code
 *   --trace FILE    write a Chrome trace-event JSON timeline (pass
 *                   spans + per-core simulator lanes; load the file
 *                   in Perfetto / chrome://tracing)
 *   --workload-dir D  load every *.gmt cell in D into the registry
 *                   (same-name cells replace built-ins, new names
 *                   append; see workloads/serialize.hpp)
 *   --provenance FILE  record decision provenance for every cell and
 *                   write one schema:1 JSON document with the cells'
 *                   canonical provenance records (gmt-explain's
 *                   input; purely observational — results are
 *                   byte-identical with or without it)
 */

#include <memory>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "workloads/workload.hpp"

namespace gmt
{

/** Parsed harness flags. */
struct BenchOptions
{
    int jobs = 0; ///< 0 = hardware default

    /** COCO solver tasks per cell; 0 = leave the cells' own values. */
    int coco_jobs = 0;

    bool use_cache = true;
    std::string stats_path;
    std::vector<std::string> only; ///< empty = all workloads
    bool quiet = false;
    bool verify_mt = true;
    std::string trace_path;      ///< empty = no trace
    std::string workload_dir;    ///< empty = built-ins only
    std::string provenance_path; ///< empty = no provenance file
};

/**
 * Parse the shared flags. Unknown flags, missing values and malformed
 * or out-of-range integers print usage and exit 2 (--help exits 0).
 * @p argv[0] is used in the usage text.
 */
BenchOptions parseBenchOptions(int argc, char **argv);

/**
 * One per bench binary: owns the stats sink and the runner, filters
 * the workload list, and prints a one-line run summary (cells, jobs,
 * wall clock, cache hit rate) after each batch.
 */
class BenchHarness
{
  public:
    BenchHarness(int argc, char **argv);
    explicit BenchHarness(const BenchOptions &opts);

    /**
     * The registry (built-ins overlaid with --workload-dir cells)
     * filtered by --only (order preserved).
     */
    std::vector<Workload> workloads() const;

    /**
     * Run the batch; prints the summary line unless --quiet. After
     * the batch, rewrites the --trace file (the collector is
     * cumulative, so the final batch's write covers the whole run).
     */
    std::vector<PipelineResult> runAll(
        const std::vector<ExperimentCell> &cells);

    ExperimentRunner &runner() { return *runner_; }
    StatsSink *stats() { return stats_.get(); }
    TraceCollector *trace() { return trace_.get(); }

  private:
    BenchOptions opts_;
    std::unique_ptr<StatsSink> stats_;
    std::unique_ptr<TraceCollector> trace_;
    std::unique_ptr<ExperimentRunner> runner_;
};

} // namespace gmt

#endif // GMT_DRIVER_BENCH_HARNESS_HPP
