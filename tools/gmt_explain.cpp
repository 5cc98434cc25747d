/**
 * @file
 * gmt-explain: decision-provenance query CLI.
 *
 * Runs one cell through the standard pipeline with provenance
 * recording and stall profiling on, then answers "why" questions from
 * the record:
 *
 *   gmt-explain --workload W [--scheduler dswp|gremio] [--no-coco]
 *               [--threads N] [--max-queues N] [--autotune]
 *               [--instr N | --queue N | --costliest] [--top N]
 *               [--diff [--diff-scheduler S] [--diff-coco on|off]
 *                       [--diff-threads N] [--diff-max-queues N]
 *                       [--diff-autotune on|off] [--expect-zero]]
 *               [--json] [--workload-dir DIR]
 *
 *   --instr N      why is instruction N on its thread: the
 *                  partitioner decision that placed its unit (DSWP
 *                  fill accounting / GREMIO candidate scores) and the
 *                  placements communicating its value.
 *   --queue N      why does queue N exist: the allocator's share
 *                  arithmetic and every placement decision
 *                  multiplexed onto it, with per-point cut costs.
 *                  For an unallocated id: the elided decisions.
 *   --costliest    (default) every StallReport entry joined back to
 *                  the provenance records that caused it, ranked by
 *                  stall cycles; conservation-checked.
 *   --diff         compare against a second run of the same workload
 *                  with the --diff-* overrides applied (none =
 *                  identical cell, which must report zero deltas;
 *                  --expect-zero turns a nonzero diff into exit 1 for
 *                  CI). With --diff-autotune on (and no other
 *                  override) the diff is baseline vs. the feedback
 *                  autotuner on the same cell, and the tool
 *                  smoke-checks that the tuner's accepted moves —
 *                  each carrying its per-queue stall evidence — sum
 *                  exactly to the simulated cycle delta reported.
 *
 * --json swaps every report for a single schema:1 JSON document on
 * stdout.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "driver/pass_manager.hpp"
#include "obs/explain.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace gmt;

struct ExplainOptions
{
    std::string workload;
    Scheduler scheduler = Scheduler::Gremio;
    bool coco = true;
    int num_threads = 2;
    int max_queues = 0;
    bool autotune = false;

    int instr = -1;
    int queue = -1;
    bool costliest = false;
    int top = 10;

    bool diff = false;
    Scheduler diff_scheduler = Scheduler::Gremio;
    bool diff_scheduler_set = false;
    int diff_coco = -1; ///< -1 = same as primary
    int diff_threads = 0;
    int diff_max_queues = -1;
    int diff_autotune = -1; ///< -1 = same as primary
    bool expect_zero = false;

    bool json = false;
    std::string workload_dir;
};

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s --workload W [--scheduler dswp|gremio] [--no-coco] "
        "[--threads N] [--max-queues N] [--autotune] "
        "[--instr N | --queue N | --costliest] [--top N] "
        "[--diff [--diff-scheduler dswp|gremio] [--diff-coco on|off] "
        "[--diff-threads N] [--diff-max-queues N] "
        "[--diff-autotune on|off] [--expect-zero]] "
        "[--json] [--workload-dir DIR]\n",
        argv0);
    std::exit(exit_code);
}

Scheduler
parseScheduler(const char *argv0, const std::string &v)
{
    if (v == "dswp")
        return Scheduler::Dswp;
    if (v == "gremio")
        return Scheduler::Gremio;
    std::fprintf(stderr, "%s: unknown scheduler '%s'\n", argv0,
                 v.c_str());
    usage(argv0, 2);
}

ExplainOptions
parseArgs(int argc, char **argv)
{
    ExplainOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             arg.c_str());
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        auto number = [&](int64_t lo, int64_t hi) {
            return static_cast<int>(
                intFlag(argv[0], arg, value(), lo, hi, usage));
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--scheduler")
            opts.scheduler = parseScheduler(argv[0], value());
        else if (arg == "--no-coco")
            opts.coco = false;
        else if (arg == "--threads")
            opts.num_threads = number(1, kMaxThreads);
        else if (arg == "--max-queues")
            opts.max_queues = number(0, INT_MAX);
        else if (arg == "--autotune")
            opts.autotune = true;
        else if (arg == "--instr")
            opts.instr = number(0, INT_MAX);
        else if (arg == "--queue")
            opts.queue = number(0, INT_MAX);
        else if (arg == "--costliest")
            opts.costliest = true;
        else if (arg == "--top")
            opts.top = number(1, INT_MAX);
        else if (arg == "--diff")
            opts.diff = true;
        else if (arg == "--diff-scheduler") {
            opts.diff_scheduler = parseScheduler(argv[0], value());
            opts.diff_scheduler_set = true;
        } else if (arg == "--diff-coco") {
            std::string v = value();
            if (v == "on")
                opts.diff_coco = 1;
            else if (v == "off")
                opts.diff_coco = 0;
            else
                usage(argv[0], 2);
        } else if (arg == "--diff-threads")
            opts.diff_threads = number(1, kMaxThreads);
        else if (arg == "--diff-max-queues")
            opts.diff_max_queues = number(0, INT_MAX);
        else if (arg == "--diff-autotune") {
            std::string v = value();
            if (v == "on")
                opts.diff_autotune = 1;
            else if (v == "off")
                opts.diff_autotune = 0;
            else
                usage(argv[0], 2);
        } else if (arg == "--expect-zero")
            opts.expect_zero = true;
        else if (arg == "--json")
            opts.json = true;
        else if (arg == "--workload-dir")
            opts.workload_dir = value();
        else if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         arg.c_str());
            usage(argv[0], 2);
        }
    }
    if (opts.workload.empty()) {
        std::fprintf(stderr, "%s: --workload is required\n", argv[0]);
        usage(argv[0], 2);
    }
    return opts;
}

/** Everything one explained run needs, kept alive together. */
struct RunArtifacts
{
    std::shared_ptr<const IrArtifact> ir;
    std::shared_ptr<const ObsProfileArtifact> obs;
    std::shared_ptr<const ProvenanceArtifact> prov;
    std::shared_ptr<const AutotuneArtifact> autotune; ///< may be null
};

RunArtifacts
runCell(const Workload &w, const PipelineOptions &po,
        ArtifactCache &cache)
{
    PipelineContext ctx(w, po);
    ctx.cache = &cache;
    PassManager::standardPipeline().run(ctx);
    GMT_ASSERT(ctx.ir && ctx.obs && ctx.prov,
               "explain pipeline did not publish its artifacts");
    return {ctx.ir, ctx.obs, ctx.prov, ctx.autotune};
}

/**
 * Smoke check for a baseline-vs-autotuned diff of the same cell: the
 * tuner's own move log must telescope exactly onto the simulated
 * cycle delta the diff reports — the baseline cycles of the tuned
 * run match the untuned run's cycles, the final trajectory entry
 * matches the tuned run's cycles, and the accepted moves' per-move
 * cycle gains (each backed by named per-queue stall evidence) sum to
 * the whole delta. Returns an error string, empty when consistent.
 */
std::string
checkAutotuneDiff(const ScheduleDiff &d, const AutotuneResult &at,
                  bool base_is_a, bool verbose)
{
    const uint64_t base_cycles = base_is_a ? d.cycles_a : d.cycles_b;
    const uint64_t tuned_cycles = base_is_a ? d.cycles_b : d.cycles_a;
    if (at.baseline_cycles != base_cycles)
        return "tuner baseline " + std::to_string(at.baseline_cycles) +
               " != untuned run " + std::to_string(base_cycles);
    if (at.trajectory.empty() || at.trajectory.back() != tuned_cycles)
        return "tuner trajectory end does not match the tuned run";
    uint64_t gains = 0, prev = at.baseline_cycles;
    for (const AutotuneMove &m : at.moves) {
        if (!m.accepted)
            continue;
        if (m.cycles >= prev)
            return "accepted move did not improve cycles";
        gains += prev - m.cycles;
        prev = m.cycles;
    }
    if (prev != tuned_cycles)
        return "accepted move chain does not end at the tuned run's "
               "cycles";
    if (gains != base_cycles - tuned_cycles)
        return "accepted move gains (" + std::to_string(gains) +
               ") do not sum to the cycle delta (" +
               std::to_string(base_cycles - tuned_cycles) + ")";
    if (verbose) {
        std::printf("autotune: %d accepted moves telescope to the "
                    "%llu-cycle delta\n",
                    at.moves_accepted,
                    static_cast<unsigned long long>(gains));
        for (const AutotuneMove &m : at.moves) {
            if (!m.accepted)
                continue;
            std::printf("  iter %d %-8s %s", m.iteration,
                        m.kind.c_str(), m.detail.c_str());
            if (m.queue >= 0)
                std::printf("  [stall evidence: queue %d, %llu "
                            "cycles]",
                            m.queue,
                            static_cast<unsigned long long>(
                                m.stall_cycles));
            std::printf("\n");
        }
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    ExplainOptions opts = parseArgs(argc, argv);

    WorkloadRegistry registry;
    if (!opts.workload_dir.empty()) {
        try {
            registry.loadDirectory(opts.workload_dir);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }
    std::vector<Workload> all = registry.take();
    const Workload *w = nullptr;
    for (const Workload &cand : all)
        if (cand.name == opts.workload)
            w = &cand;
    if (!w) {
        std::fprintf(stderr, "gmt-explain: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }

    PipelineOptions po;
    po.scheduler = opts.scheduler;
    po.use_coco = opts.coco;
    po.num_threads = opts.num_threads;
    po.max_queues = opts.max_queues;
    po.profile_stalls = true;
    po.record_provenance = true;
    po.autotune = opts.autotune;

    ArtifactCache cache;
    RunArtifacts a;
    try {
        a = runCell(*w, po, cache);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gmt-explain: %s\n", e.what());
        return 1;
    }
    const Provenance &prov = a.prov->prov;
    const Function &f = a.ir->func;

    if (opts.diff) {
        PipelineOptions po2 = po;
        if (opts.diff_scheduler_set)
            po2.scheduler = opts.diff_scheduler;
        if (opts.diff_coco >= 0)
            po2.use_coco = opts.diff_coco != 0;
        if (opts.diff_threads > 0)
            po2.num_threads = opts.diff_threads;
        if (opts.diff_max_queues >= 0)
            po2.max_queues = opts.diff_max_queues;
        if (opts.diff_autotune >= 0)
            po2.autotune = opts.diff_autotune != 0;
        RunArtifacts b;
        try {
            b = runCell(*w, po2, cache);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "gmt-explain: %s\n", e.what());
            return 1;
        }
        ScheduleDiff d = diffSchedules(prov, a.obs->report,
                                       b.prov->prov, b.obs->report);
        if (opts.json) {
            writeScheduleDiffJson(std::cout, d);
            std::cout << "\n";
        } else {
            renderScheduleDiff(std::cout, d);
        }
        // Baseline-vs-autotuned diff of an otherwise identical cell:
        // smoke-check that the tuner's reported moves (each with its
        // per-queue stall evidence) account exactly for the simulated
        // cycle delta the diff shows.
        if (po.autotune != po2.autotune &&
            po.scheduler == po2.scheduler &&
            po.use_coco == po2.use_coco &&
            po.num_threads == po2.num_threads &&
            po.max_queues == po2.max_queues) {
            const RunArtifacts &tuned = po.autotune ? a : b;
            GMT_ASSERT(tuned.autotune,
                       "autotuned run did not publish its move log");
            std::string err =
                checkAutotuneDiff(d, tuned.autotune->result,
                                  /*base_is_a=*/!po.autotune,
                                  /*verbose=*/!opts.json);
            if (!err.empty()) {
                std::fprintf(
                    stderr,
                    "gmt-explain: autotune diff smoke check: %s\n",
                    err.c_str());
                return 1;
            }
        }
        if (opts.expect_zero && !d.zero()) {
            std::fprintf(stderr,
                         "gmt-explain: --expect-zero but the diff is "
                         "nonzero\n");
            return 1;
        }
        return 0;
    }

    if (opts.instr >= 0) {
        if (opts.json) {
            writeInstrExplanationJson(std::cout, prov, f,
                                      (InstrId)opts.instr);
            std::cout << "\n";
        } else {
            renderInstrExplanation(std::cout, prov, f,
                                   (InstrId)opts.instr);
        }
        return 0;
    }
    if (opts.queue >= 0) {
        if (opts.json) {
            writeQueueExplanationJson(std::cout, prov, opts.queue);
            std::cout << "\n";
        } else {
            renderQueueExplanation(std::cout, prov, opts.queue);
        }
        return 0;
    }

    // Default: the costliest-decisions report.
    CostliestReport r = buildCostliestReport(prov, a.obs->report, f);
    if (opts.json) {
        writeCostliestReportJson(std::cout, r, opts.top);
        std::cout << "\n";
    } else {
        std::cout << "=== " << prov.cell << " ===\n";
        renderCostliestReport(std::cout, r, opts.top);
    }
    return 0;
}
