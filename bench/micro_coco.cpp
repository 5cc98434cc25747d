/**
 * @file
 * Microbenchmark + count gate for the COCO cut walk. Over the fig7
 * cell matrix (every workload x {GREMIO, DSWP}, COCO on) it:
 *
 *  1. materializes each cell's placement inputs once (IR, profile,
 *     PDG, partition) via the codegen pipeline prefix;
 *  2. times cocoOptimize over the whole matrix, best of N
 *     repetitions after one untimed counting sweep;
 *  3. writes BENCH_coco.json with the calls' own counts (CocoResult)
 *     over one sweep: problems enumerated, solves (cuts built and
 *     solved), and the cut-cache answers beside the solves again as
 *     coco_warm_starts / coco_cold_rebuilds, the pair bench_report
 *     turns into a hit rate. The counts are exact, so CI gates on
 *     them rather than on wall time.
 *
 * Usage: micro_coco [--reps N] [--out FILE]
 *        (defaults: 3 reps, ./BENCH_coco.json)
 */

#include <algorithm>
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
#include "workloads/workload.hpp"

using namespace gmt;

namespace
{

using Clock = std::chrono::steady_clock;

/** One fig7 cell's placement inputs, materialized once. */
struct Cell
{
    std::shared_ptr<const PdgArtifact> pdg; // keeps the IR alive
    std::shared_ptr<const PartitionArtifact> partition;
    std::shared_ptr<const ProfileArtifact> profile;
};

/** Cut counts summed over one sweep of the matrix, and its wall. */
struct Sweep
{
    uint64_t problems = 0;
    uint64_t warm_starts = 0;
    uint64_t cold_rebuilds = 0;
    double wall_ms = 0.0;
};

/** Run COCO over every cell in order. */
Sweep
runMatrix(const std::vector<Cell> &cells)
{
    Sweep s;
    auto t0 = Clock::now();
    for (const Cell &c : cells) {
        CocoResult r = cocoOptimize(
            c.pdg->ir->func, c.pdg->pdg, c.partition->partition,
            c.pdg->cd, c.profile->profile);
        s.problems += r.problems;
        s.warm_starts += r.warm_starts;
        s.cold_rebuilds += r.cold_rebuilds;
    }
    s.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    return s;
}

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(stderr, "usage: %s [--reps N] [--out FILE]\n", argv0);
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_coco.json";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
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
            cells.push_back({ctx.pdg, ctx.partition, ctx.profile});
        }
    }

    // Counting sweep (also warms allocators and page cache), then
    // the timed sweeps: best of --reps.
    const Sweep counts = runMatrix(cells);
    double wall_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double ms = runMatrix(cells).wall_ms;
        wall_ms = r == 0 ? ms : std::min(wall_ms, ms);
    }

    JsonObject o;
    o.str("bench", "coco");
    o.num("cells", static_cast<int64_t>(cells.size()));
    o.num("reps", static_cast<int64_t>(reps));
    o.num("problems", counts.problems);
    o.num("solves", counts.cold_rebuilds);
    o.num("wall_ms", wall_ms);
    o.num("coco_warm_starts", counts.warm_starts);
    o.num("coco_cold_rebuilds", counts.cold_rebuilds);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_coco: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return 0;
}
