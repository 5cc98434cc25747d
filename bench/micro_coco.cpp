/**
 * @file
 * Microbenchmark + correctness gate for the parallel COCO cut
 * solver. Over the fig7 cell matrix (every workload x {GREMIO, DSWP},
 * COCO on) it:
 *
 *  1. materializes each cell's placement inputs once (IR, profile,
 *     PDG, partition) via the codegen pipeline prefix;
 *  2. times cocoOptimize over the whole matrix serially (jobs=1, the
 *     seed algorithm) and in the composed parallel regime the
 *     experiment runner uses in production — cells dispatched as
 *     tasks on one shared pool, each nesting its speculative cut
 *     tasks on the same pool via TaskGroup (default jobs=8) — best
 *     of N repetitions;
 *  3. asserts every parallel plan is identical to its serial plan
 *     (the bit-identical-output contract CI enforces on every push)
 *     and writes the numbers to BENCH_coco.json. The counts are the
 *     calls' own (CocoResult): problems and solves over one serial
 *     sweep, cut-cache hits and inline solves over the parallel
 *     repetitions.
 *
 * Usage: micro_coco [--jobs N] [--reps N] [--out FILE]
 *        (defaults: 8 jobs, 3 reps, ./BENCH_coco.json)
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

using namespace gmt;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One fig7 cell's placement inputs, materialized once. */
struct Cell
{
    std::string id;
    std::shared_ptr<const PdgArtifact> pdg; // keeps the IR alive
    std::shared_ptr<const PartitionArtifact> partition;
    std::shared_ptr<const ProfileArtifact> profile;
};

/**
 * Run the COCO pass over every cell. With a pool, cells are
 * dispatched as tasks and each nests its cut tasks on the same pool
 * (the experiment runner's configuration); without one, everything
 * runs inline (the seed behaviour). Results land by cell index, so
 * the output order is deterministic either way.
 */
std::vector<CocoResult>
runMatrix(const std::vector<Cell> &cells, ThreadPool *pool, int jobs,
          double &wall_ms)
{
    std::vector<CocoResult> results(cells.size());
    auto run_cell = [&](size_t i) {
        const Cell &c = cells[i];
        CocoExec exec{pool, jobs, nullptr};
        results[i] = cocoOptimize(
            c.pdg->ir->func, c.pdg->pdg, c.partition->partition,
            c.pdg->cd, c.profile->profile, CocoOptions{}, exec);
    };
    auto t0 = Clock::now();
    if (!pool) {
        for (size_t i = 0; i < cells.size(); ++i)
            run_cell(i);
    } else {
        TaskGroup group(*pool);
        for (size_t i = 0; i < cells.size(); ++i)
            group.run([&run_cell, i] { run_cell(i); });
        group.wait();
    }
    wall_ms = msSince(t0);
    return results;
}

/** Cut counts summed over CocoResults. */
struct CutCounts
{
    uint64_t problems = 0;
    uint64_t warm_starts = 0;
    uint64_t cold_rebuilds = 0;

    void
    add(const std::vector<CocoResult> &results)
    {
        for (const CocoResult &r : results) {
            problems += r.problems;
            warm_starts += r.warm_starts;
            cold_rebuilds += r.cold_rebuilds;
        }
    }
};

bool
samePlan(const CommPlan &a, const CommPlan &b)
{
    if (a.placements.size() != b.placements.size())
        return false;
    for (size_t i = 0; i < a.placements.size(); ++i) {
        const CommPlacement &x = a.placements[i];
        const CommPlacement &y = b.placements[i];
        if (x.kind != y.kind || x.reg != y.reg ||
            x.src_thread != y.src_thread ||
            x.dst_thread != y.dst_thread || x.points != y.points)
            return false;
    }
    return true;
}

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--reps N] [--out FILE]\n",
                 argv0);
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_coco.json";
    int jobs = 8;
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = static_cast<int>(intFlag(argv[0], "--jobs", argv[++i],
                                            2, kMaxJobs, usage));
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = static_cast<int>(intFlag(argv[0], "--reps", argv[++i],
                                            1, INT_MAX, usage));
        } else {
            usage(argv[0], 2);
        }
    }

    // Materialize the fig7 matrix inputs (codegen is not measured).
    std::vector<Cell> cells;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            cells.push_back(
                {ctx.cellId(), ctx.pdg, ctx.partition, ctx.profile});
        }
    }

    // Counting pass (also warms allocators and page cache): one
    // serial sweep. Serially every cut is built and solved on the
    // apply walk, so its cold rebuilds are the matrix's solves.
    double warm_ms = 0.0;
    std::vector<CocoResult> serial =
        runMatrix(cells, nullptr, 1, warm_ms);
    CutCounts serial_counts;
    serial_counts.add(serial);

    // Timed passes: best of --reps for each mode.
    double serial_ms = warm_ms;
    for (int r = 0; r < reps; ++r) {
        double ms = 0.0;
        runMatrix(cells, nullptr, 1, ms);
        serial_ms = std::min(serial_ms, ms);
    }

    // Apply-walk cut-cache hits vs inline solves in the parallel runs.
    ThreadPool pool(jobs);
    CutCounts parallel_counts;
    double parallel_ms = 0.0;
    std::vector<CocoResult> parallel =
        runMatrix(cells, &pool, jobs, parallel_ms);
    parallel_counts.add(parallel);
    for (int r = 1; r < reps; ++r) {
        double ms = 0.0;
        parallel_counts.add(runMatrix(cells, &pool, jobs, ms));
        parallel_ms = std::min(parallel_ms, ms);
    }

    // The contract: the parallel solver's plan is bit-identical to
    // the serial one, cell by cell.
    bool identical = true;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!samePlan(serial[i].plan, parallel[i].plan)) {
            identical = false;
            std::fprintf(stderr,
                         "micro_coco: plan mismatch in cell %s\n",
                         cells[i].id.c_str());
        }
    }

    double speedup =
        parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
    JsonObject o;
    o.str("bench", "coco");
    o.boolean("identical", identical);
    o.num("cells", static_cast<int64_t>(cells.size()));
    o.num("jobs", static_cast<int64_t>(jobs));
    o.num("problems", serial_counts.problems);
    o.num("solves", serial_counts.cold_rebuilds);
    o.num("serial_wall_ms", serial_ms);
    o.num("parallel_wall_ms", parallel_ms);
    o.num("speedup", speedup);
    o.num("coco_warm_starts", parallel_counts.warm_starts);
    o.num("coco_cold_rebuilds", parallel_counts.cold_rebuilds);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_coco: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return identical ? 0 : 1;
}
