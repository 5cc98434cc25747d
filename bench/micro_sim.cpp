/**
 * @file
 * Microbenchmark + correctness gate for the timing simulator's
 * event-driven mechanisms. Over the full fig7/fig8 cell matrix (every
 * workload x {GREMIO, DSWP} x {COCO off, on}) it:
 *
 *  1. runs every MT program and every single-threaded baseline with
 *     cycle skipping on (SimEngine::Fast) and off
 *     (SimEngine::Reference) and asserts the SimResults are
 *     bit-identical (the differential contract CI enforces on every
 *     push);
 *  2. times both modes and the end-to-end fig8 cell grid (pipeline
 *     + simulation, cached), and writes the numbers to BENCH_sim.json
 *     so the perf trajectory is tracked per commit. Both modes run
 *     the same issue loop and both pay the decode, so engine_speedup
 *     (sim_reference_wall_ms / sim_fast_wall_ms) measures wait
 *     records plus cycle skipping alone;
 *  3. re-runs every pre-decoded program with cycle skipping, with
 *     nothing attached (the lean build) and with a SimProfile
 *     attached, asserts the two SimResults and final memories are
 *     identical, and reports the simulator's unit costs:
 *     ns_per_simulated_cycle and ns_per_issued_instr of the lean runs,
 *     and profiled_ns_per_simulated_cycle of the profiled ones. Each
 *     program's time is the fastest of kUnitReps runs, which keeps the
 *     unit costs steady on a shared host.
 *
 * Usage: micro_sim [--out FILE]   (default ./BENCH_sim.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "driver/experiment.hpp"
#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "sim/cmp_simulator.hpp"
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

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sim.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
            return 2;
        }
    }

    // Materialize every cell's MT program once (codegen is not what
    // is being measured).
    struct Cell
    {
        const Workload *w;
        std::string id;
        MachineConfig machine;
        MtProgram prog;
        Function st_func{""};
    };
    const auto workloads = allWorkloads();
    std::vector<Cell> cells;
    for (const Workload &w : workloads) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                cells.push_back({&w, ctx.cellId(), po.machine,
                                 ctx.prog->prog, ctx.ir->func});
            }
        }
    }

    // Differential pass: skip on and off over every cell, ST and MT.
    bool identical = true;
    double fast_ms = 0.0, ref_ms = 0.0;
    uint64_t swept = 0, skipped = 0, cycles = 0;
    for (const Cell &c : cells) {
        CmpSimulator fast_sim(c.machine, SimEngine::Fast);
        CmpSimulator ref_sim(c.machine, SimEngine::Reference);

        MemoryImage m1 = workloadMemory(*c.w, /*ref=*/true);
        auto t0 = Clock::now();
        SimResult fast = fast_sim.run(c.prog, c.w->ref_args, m1);
        fast_ms += msSince(t0);

        MemoryImage m2 = workloadMemory(*c.w, /*ref=*/true);
        t0 = Clock::now();
        SimResult ref = ref_sim.run(c.prog, c.w->ref_args, m2);
        ref_ms += msSince(t0);

        MemoryImage m3 = workloadMemory(*c.w, /*ref=*/true);
        t0 = Clock::now();
        SimResult st_fast = simulateSingleThreaded(
            c.st_func, c.w->ref_args, m3, c.machine, SimEngine::Fast);
        fast_ms += msSince(t0);

        MemoryImage m4 = workloadMemory(*c.w, /*ref=*/true);
        t0 = Clock::now();
        SimResult st_ref =
            simulateSingleThreaded(c.st_func, c.w->ref_args, m4,
                                   c.machine, SimEngine::Reference);
        ref_ms += msSince(t0);

        swept += fast.engine.iterations + st_fast.engine.iterations;
        skipped += fast.engine.skipped + st_fast.engine.skipped;
        cycles += fast.cycles + st_fast.cycles;

        if (!(fast == ref) || !(st_fast == st_ref)) {
            identical = false;
            std::fprintf(stderr,
                         "micro_sim: engine mismatch in cell %s\n",
                         c.id.c_str());
        }
    }

    // Unit costs: decode once, then time the simulation alone, lean
    // and with a profile attached.
    constexpr int kUnitReps = 3;
    double lean_ms = 0.0, profiled_ms = 0.0;
    uint64_t unit_cycles = 0, issued = 0;
    for (const Cell &c : cells) {
        DecodedProgram st;
        st.threads.push_back(decodeThread(c.st_func));
        st.queue_capacity = c.machine.queue_capacity;
        for (const DecodedProgram &prog : {decodeProgram(c.prog), st}) {
            double lean_best = 0.0, profiled_best = 0.0;
            for (int rep = 0; rep < kUnitReps; ++rep) {
                MemoryImage m1 = workloadMemory(*c.w, /*ref=*/true);
                auto t0 = Clock::now();
                SimResult lean =
                    CmpSimulator(c.machine).run(prog, c.w->ref_args, m1);
                double ms = msSince(t0);
                lean_best = rep ? std::min(lean_best, ms) : ms;

                CmpSimulator profiled_sim(c.machine);
                SimProfile profile;
                profiled_sim.setProfile(&profile);
                MemoryImage m2 = workloadMemory(*c.w, /*ref=*/true);
                t0 = Clock::now();
                SimResult profiled =
                    profiled_sim.run(prog, c.w->ref_args, m2);
                ms = msSince(t0);
                profiled_best = rep ? std::min(profiled_best, ms) : ms;

                if (!(lean == profiled) || !(m1 == m2)) {
                    identical = false;
                    std::fprintf(stderr,
                                 "micro_sim: profiled run differs in "
                                 "cell %s\n",
                                 c.id.c_str());
                }
                if (rep == 0) {
                    unit_cycles += lean.cycles;
                    for (const CoreStats &core : lean.core)
                        issued += core.counts.total();
                }
            }
            lean_ms += lean_best;
            profiled_ms += profiled_best;
        }
    }
    auto perUnit = [](double ms, uint64_t n) {
        return n ? ms * 1e6 / static_cast<double>(n) : 0.0;
    };

    // End-to-end fig8 grid: full pipeline with artifact cache and
    // cycle skipping, the configuration the figure drivers run.
    std::vector<ExperimentCell> grid;
    for (const Workload &w : workloads) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                grid.push_back({w, po});
            }
        }
    }
    auto t0 = Clock::now();
    {
        ExperimentOptions eo;
        ExperimentRunner runner(eo);
        runner.runAll(grid);
    }
    double fig8_ms = msSince(t0);

    double skip_ratio =
        cycles ? static_cast<double>(skipped) /
                     static_cast<double>(cycles)
               : 0.0;
    JsonObject o;
    o.str("bench", "sim");
    o.boolean("identical", identical);
    o.num("cells", static_cast<int64_t>(cells.size()));
    o.num("sim_fast_wall_ms", fast_ms);
    o.num("sim_reference_wall_ms", ref_ms);
    o.num("engine_speedup", fast_ms > 0.0 ? ref_ms / fast_ms : 0.0);
    o.num("skip_ratio", skip_ratio);
    o.num("swept_cycles", swept);
    o.num("skipped_cycles", skipped);
    o.num("simulated_cycles", cycles);
    o.num("ns_per_simulated_cycle", perUnit(lean_ms, unit_cycles));
    o.num("ns_per_issued_instr", perUnit(lean_ms, issued));
    o.num("profiled_ns_per_simulated_cycle",
          perUnit(profiled_ms, unit_cycles));
    o.num("fig8_wall_ms", fig8_ms);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_sim: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return identical ? 0 : 1;
}
