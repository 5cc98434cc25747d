/**
 * @file
 * Microbenchmark + correctness gate for the feedback-directed
 * autotuner (src/autotune/). Over the COCO cell matrix (every
 * workload x {GREMIO, DSWP}) it runs the full pipeline with the
 * autotune pass on, against one shared artifact cache, and reports:
 *
 *  - convergence: every cell must stop on the epsilon gate, not the
 *    iteration cap;
 *  - the speedup trajectory: geomean baseline vs. autotuned speedup
 *    (tuned >= baseline per cell by construction — the loop only
 *    accepts strict simulated improvements);
 *  - per-iteration wall time: the first feedback round pays the
 *    baseline profile, later rounds reuse it and skip
 *    already-evaluated schedules, so warm rounds must be materially
 *    cheaper than the cold one.
 *
 * Writes a flat BENCH_autotune.json for tools/bench_report and exits
 * nonzero when a gate fails.
 *
 * Usage: micro_autotune [--only CSV] [--out FILE] [--warm-gate X]
 *        (defaults: all workloads, ./BENCH_autotune.json, 1.5)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "driver/artifact_cache.hpp"
#include "driver/pass_manager.hpp"
#include "driver/report.hpp"
#include "driver/stats.hpp"
#include "support/cli.hpp"
#include "workloads/workload.hpp"

using namespace gmt;

namespace
{

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(stderr,
                 "usage: %s [--only CSV] [--out FILE] [--warm-gate X]\n",
                 argv0);
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_autotune.json";
    std::vector<std::string> only;
    double warm_gate = 1.5;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = splitCsv(argv[++i]);
        } else if (std::strcmp(argv[i], "--warm-gate") == 0 &&
                   i + 1 < argc) {
            std::optional<double> gate =
                parseDouble(argv[++i], 0.0, HUGE_VAL);
            if (!gate) {
                std::fprintf(stderr,
                             "%s: --warm-gate wants a finite number >= 0, "
                             "got '%s'\n",
                             argv[0], argv[i]);
                usage(argv[0], 2);
            }
            warm_gate = *gate;
        } else {
            usage(argv[0], 2);
        }
    }

    std::vector<Workload> workloads;
    for (const Workload &w : allWorkloads()) {
        if (only.empty() ||
            std::find(only.begin(), only.end(), w.name) != only.end())
            workloads.push_back(w);
    }
    if (workloads.empty()) {
        std::fprintf(stderr, "micro_autotune: no workloads selected\n");
        return 2;
    }

    ArtifactCache cache;
    bool all_converged = true;
    int iterations = 0, accepted = 0, rejected = 0, improved = 0;
    int64_t coco_warm = 0, coco_cold = 0;
    std::vector<double> base_speedups, tuned_speedups;
    std::vector<double> cold_ms, warm_ms;
    for (const Workload &w : workloads) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            po.autotune = true;
            PipelineContext ctx(w, po);
            ctx.cache = &cache;
            PassManager::standardPipeline().run(ctx);

            const PipelineResult &r = ctx.result;
            const AutotuneResult &at = ctx.autotune->result;
            if (!at.converged) {
                all_converged = false;
                std::fprintf(stderr,
                             "micro_autotune: %s hit the iteration "
                             "cap without converging\n",
                             ctx.cellId().c_str());
            }
            iterations += at.iterations;
            accepted += at.moves_accepted;
            rejected += at.moves_rejected;
            for (const PassStats &ps : ctx.pass_stats) {
                coco_warm += ps.value("coco_warm_starts");
                coco_cold += ps.value("coco_cold_rebuilds");
            }
            if (r.mt_cycles < r.baseline_mt_cycles)
                ++improved;
            base_speedups.push_back(
                static_cast<double>(r.st_cycles) /
                static_cast<double>(r.baseline_mt_cycles));
            tuned_speedups.push_back(r.speedup());
            if (!at.iter_wall_ms.empty()) {
                cold_ms.push_back(at.iter_wall_ms.front());
                for (size_t i = 1; i < at.iter_wall_ms.size(); ++i)
                    warm_ms.push_back(at.iter_wall_ms[i]);
            }
        }
    }

    const double geomean_base = geomean(base_speedups);
    const double geomean_tuned = geomean(tuned_speedups);
    const double cold_iter_ms = mean(cold_ms);
    const double warm_iter_ms = mean(warm_ms);
    const double warm_speedup =
        warm_iter_ms > 0.0 ? cold_iter_ms / warm_iter_ms : 0.0;

    // Gates: converge everywhere, never lose speedup, and warm
    // feedback rounds must be materially cheaper than the cold one
    // (no warm rounds at all would mean no cell ever iterated, which
    // also fails — the loop would not be exercising its reuse paths).
    bool geomean_ok = geomean_tuned >= geomean_base;
    bool warm_ok = !warm_ms.empty() && warm_speedup >= warm_gate;
    if (!geomean_ok)
        std::fprintf(stderr,
                     "micro_autotune: tuned geomean %.4f < baseline "
                     "%.4f\n",
                     geomean_tuned, geomean_base);
    if (!warm_ok)
        std::fprintf(stderr,
                     "micro_autotune: warm iterations not >= %.2fx "
                     "cheaper than cold (cold %.2fms, warm %.2fms)\n",
                     warm_gate, cold_iter_ms, warm_iter_ms);

    JsonObject o;
    o.str("bench", "autotune");
    o.boolean("converged", all_converged);
    o.num("cells", static_cast<int64_t>(base_speedups.size()));
    o.num("iterations", static_cast<int64_t>(iterations));
    o.num("moves_accepted", static_cast<int64_t>(accepted));
    o.num("moves_rejected", static_cast<int64_t>(rejected));
    o.num("improved_cells", static_cast<int64_t>(improved));
    o.num("geomean_base", geomean_base);
    o.num("geomean_tuned", geomean_tuned);
    o.num("geomean_delta", geomean_tuned - geomean_base);
    o.num("cold_iter_ms", cold_iter_ms);
    o.num("warm_iter_ms", warm_iter_ms);
    o.num("warm_speedup", warm_speedup);
    // bench_report derives its hit-rate column from this pair (the
    // cut-cache counts on the placement and autotune pass records of
    // the cells that solved the cuts).
    o.num("coco_warm_starts", coco_warm);
    o.num("coco_cold_rebuilds", coco_cold);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_autotune: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return all_converged && geomean_ok && warm_ok ? 0 : 1;
}
