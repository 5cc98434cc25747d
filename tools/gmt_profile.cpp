/**
 * @file
 * gmt-profile: communication-stall profiler CLI.
 *
 * Runs every requested workload × scheduler with COCO off and on,
 * with the obs-profile pass enabled (full timing simulation plus
 * stall attribution; the pass dies if the attributed cycles do not
 * sum exactly to the simulator's aggregate counters, so any report
 * this tool prints is conservation-checked). For each cell it prints
 * the ranked rollup — the top-cost queues with the comm-plan
 * placements (PDG arcs) multiplexed onto them, and the top-cost
 * source blocks — and for each (workload, scheduler) pair the
 * COCO-on vs COCO-off delta: the paper's Figure 1 story, measured.
 *
 *   gmt-profile [--only W1,W2,...] [--scheduler dswp|gremio|both]
 *               [--threads N] [--max-queues N] [--top N] [--jobs N]
 *               [--json FILE] [--trace FILE] [--quiet]
 *
 * --json writes JSONL records (type:"profile" per cell, type:"queue"
 * / type:"block" per ranked row, type:"coco-delta" per pair, and one
 * type:"profile-summary") instead of the text report. --trace
 * additionally captures a Chrome trace (pass spans + per-core
 * simulator lanes) loadable in Perfetto.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "driver/stats.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace gmt;

struct ProfileOptions
{
    std::vector<std::string> only;
    std::vector<Scheduler> schedulers{Scheduler::Dswp,
                                      Scheduler::Gremio};
    int num_threads = 2;
    int max_queues = 0;
    int top = 5;
    int jobs = 0;
    bool autotune = false;
    std::string json_path;
    std::string trace_path;
    bool quiet = false;
};

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [--only W1,W2,...] [--scheduler dswp|gremio|both] "
        "[--threads N] [--max-queues N] [--top N] [--jobs N] "
        "[--autotune] [--json FILE] [--trace FILE] [--quiet]\n",
        argv0);
    std::exit(exit_code);
}

ProfileOptions
parseArgs(int argc, char **argv)
{
    ProfileOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg.c_str());
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        auto number = [&](int64_t lo, int64_t hi) {
            return static_cast<int>(
                intFlag(argv[0], arg, value(), lo, hi, usage));
        };
        if (arg == "--only") {
            opts.only = splitCsv(value());
        } else if (arg == "--scheduler") {
            std::string v = value();
            if (v == "dswp")
                opts.schedulers = {Scheduler::Dswp};
            else if (v == "gremio")
                opts.schedulers = {Scheduler::Gremio};
            else if (v == "both")
                opts.schedulers = {Scheduler::Dswp, Scheduler::Gremio};
            else
                usage(argv[0], 2);
        } else if (arg == "--threads") {
            opts.num_threads = number(1, kMaxThreads);
        } else if (arg == "--max-queues") {
            opts.max_queues = number(0, INT_MAX);
        } else if (arg == "--top") {
            opts.top = number(1, INT_MAX);
        } else if (arg == "--jobs") {
            opts.jobs = number(0, kMaxJobs);
        } else if (arg == "--autotune") {
            opts.autotune = true;
        } else if (arg == "--json") {
            opts.json_path = value();
        } else if (arg == "--trace") {
            opts.trace_path = value();
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         arg.c_str());
            usage(argv[0], 2);
        }
    }
    return opts;
}

std::string
cellName(const std::string &workload, Scheduler sched, bool coco,
         bool autotune)
{
    std::string id = workload + "/";
    id += schedulerName(sched);
    if (coco)
        id += "+coco";
    if (autotune)
        id += "+at";
    return id;
}

std::string
placementDesc(const PlacementDesc &p)
{
    std::string s = "#";
    s += std::to_string(p.placement);
    if (p.kind == CommKind::RegisterData)
        s += " r" + std::to_string(p.reg);
    else
        s += " sync";
    s += " T" + std::to_string(p.src_thread) + "->T" +
         std::to_string(p.dst_thread);
    if (p.num_points != 1)
        s += " x" + std::to_string(p.num_points);
    return s;
}

double
pct(uint64_t part, uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

void
printCellText(const std::string &name, const ObsProfileArtifact &obs,
              const PipelineResult &res, int top)
{
    const StallReport &r = obs.report;
    std::printf("=== %s ===\n", name.c_str());
    std::printf(
        "  cycles %llu, stall %llu (%.1f%%), comm instrs %llu "
        "(reg %llu, sync %llu)\n",
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.totalStallCycles()),
        pct(r.totalStallCycles(), r.cycles),
        static_cast<unsigned long long>(res.communication()),
        static_cast<unsigned long long>(res.reg_comm),
        static_cast<unsigned long long>(res.mem_sync));

    int shown = 0;
    for (const QueueAttribution &q : r.queues) {
        if (shown++ >= top || q.prof.stallCycles() == 0)
            break;
        std::string arcs;
        for (const PlacementDesc &p : q.placements) {
            if (!arcs.empty())
                arcs += ", ";
            arcs += placementDesc(p);
        }
        std::printf(
            "  q%-3d %10llu stall (full %llu, empty %llu, sa %llu; "
            "%llu prod / %llu cons)  [%s]\n",
            q.queue,
            static_cast<unsigned long long>(q.prof.stallCycles()),
            static_cast<unsigned long long>(q.prof.full_cycles),
            static_cast<unsigned long long>(q.prof.empty_cycles),
            static_cast<unsigned long long>(q.prof.sa_port_cycles),
            static_cast<unsigned long long>(q.prof.produces),
            static_cast<unsigned long long>(q.prof.consumes),
            arcs.c_str());
    }
    shown = 0;
    for (const BlockAttribution &b : r.blocks) {
        if (shown++ >= top)
            break;
        std::printf(
            "  T%d @%-14s %10llu stall (operand %llu, mem %llu, "
            "qfull %llu, qempty %llu, sa %llu)\n",
            b.thread, b.label.c_str(),
            static_cast<unsigned long long>(b.prof.total()),
            static_cast<unsigned long long>(b.prof.operand),
            static_cast<unsigned long long>(b.prof.mem_port),
            static_cast<unsigned long long>(b.prof.queue_full),
            static_cast<unsigned long long>(b.prof.queue_empty),
            static_cast<unsigned long long>(b.prof.sa_port));
    }
}

void
emitCellJson(StatsSink &sink, const std::string &name,
             const std::string &workload, Scheduler sched, bool coco,
             const ObsProfileArtifact &obs, const PipelineResult &res,
             int top)
{
    const StallReport &r = obs.report;
    JsonObject rec;
    rec.num("schema", int64_t{1})
        .str("type", "profile")
        .str("cell", name)
        .str("workload", workload)
        .str("scheduler", schedulerName(sched))
        .boolean("coco", coco)
        .num("cycles", r.cycles)
        .num("stall_cycles", r.totalStallCycles())
        .num("computation", res.computation)
        .num("reg_comm", res.reg_comm)
        .num("mem_sync", res.mem_sync)
        .str("conservation", "ok");
    sink.write(rec);

    int shown = 0;
    for (const QueueAttribution &q : r.queues) {
        if (shown++ >= top || q.prof.stallCycles() == 0)
            break;
        std::string arcs;
        for (const PlacementDesc &p : q.placements) {
            if (!arcs.empty())
                arcs += ", ";
            arcs += placementDesc(p);
        }
        JsonObject qr;
        qr.num("schema", int64_t{1})
            .str("type", "queue")
            .str("cell", name)
            .num("queue", static_cast<int64_t>(q.queue))
            .num("full_cycles", q.prof.full_cycles)
            .num("empty_cycles", q.prof.empty_cycles)
            .num("sa_port_cycles", q.prof.sa_port_cycles)
            .num("produces", q.prof.produces)
            .num("consumes", q.prof.consumes)
            .str("placements", arcs);
        sink.write(qr);
    }
    shown = 0;
    for (const BlockAttribution &b : r.blocks) {
        if (shown++ >= top)
            break;
        JsonObject br;
        br.num("schema", int64_t{1})
            .str("type", "block")
            .str("cell", name)
            .num("thread", static_cast<int64_t>(b.thread))
            .str("label", b.label)
            .num("operand", b.prof.operand)
            .num("mem_port", b.prof.mem_port)
            .num("queue_full", b.prof.queue_full)
            .num("queue_empty", b.prof.queue_empty)
            .num("sa_port", b.prof.sa_port);
        sink.write(br);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ProfileOptions opts = parseArgs(argc, argv);

    std::unique_ptr<StatsSink> sink;
    if (!opts.json_path.empty()) {
        try {
            sink = std::make_unique<StatsSink>(opts.json_path);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    std::vector<Workload> workloads = allWorkloads();
    if (!opts.only.empty()) {
        std::vector<Workload> picked;
        for (const std::string &name : opts.only) {
            bool found = false;
            for (Workload &w : workloads) {
                if (w.name == name) {
                    picked.push_back(std::move(w));
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::fprintf(stderr,
                             "gmt-profile: unknown workload '%s'\n",
                             name.c_str());
                return 2;
            }
        }
        workloads = std::move(picked);
    }

    // One (workload, scheduler) pair = COCO-off cell then COCO-on
    // cell, adjacent in the grid so the shared codegen prefix caches.
    std::vector<ExperimentCell> cells;
    for (const Workload &w : workloads) {
        for (Scheduler sched : opts.schedulers) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.num_threads = opts.num_threads;
                po.max_queues = opts.max_queues;
                po.profile_stalls = true;
                // --autotune closes the feedback loop on the COCO-on
                // cell, so the pair's delta also shows what the tuner
                // recovered on top of the one-shot placement.
                po.autotune = opts.autotune && coco;
                cells.push_back({w, po});
            }
        }
    }

    std::unique_ptr<TraceCollector> trace;
    if (!opts.trace_path.empty())
        trace = std::make_unique<TraceCollector>();

    ExperimentOptions eo;
    eo.jobs = opts.jobs;
    eo.stats = sink.get();
    eo.trace = trace.get();
    ExperimentRunner runner(eo);

    std::vector<PipelineResult> results;
    try {
        results = runner.runAll(cells);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gmt-profile: %s\n", e.what());
        return 1;
    }
    const auto &profiles = runner.obsProfiles();

    for (size_t i = 0; i + 1 < cells.size(); i += 2) {
        const Workload &w = cells[i].workload;
        Scheduler sched = cells[i].opts.scheduler;
        const ObsProfileArtifact &off = *profiles[i];
        const ObsProfileArtifact &on = *profiles[i + 1];

        if (sink) {
            emitCellJson(*sink,
                         cellName(w.name, sched, false, false), w.name,
                         sched, false, off, results[i], opts.top);
            emitCellJson(*sink,
                         cellName(w.name, sched, true, opts.autotune),
                         w.name, sched, true, on, results[i + 1],
                         opts.top);
            JsonObject delta;
            delta.num("schema", int64_t{1})
                .str("type", "coco-delta")
                .str("workload", w.name)
                .str("scheduler", schedulerName(sched))
                .num("cycles_off", off.report.cycles)
                .num("cycles_on", on.report.cycles)
                .num("stall_off", off.report.totalStallCycles())
                .num("stall_on", on.report.totalStallCycles());
            sink->write(delta);
        } else {
            printCellText(cellName(w.name, sched, false, false), off,
                          results[i], opts.top);
            printCellText(cellName(w.name, sched, true, opts.autotune),
                          on, results[i + 1], opts.top);
            double dc = pct(on.report.cycles, off.report.cycles);
            std::printf(
                "  COCO: cycles %llu -> %llu (%.1f%%), stall %llu -> "
                "%llu\n\n",
                static_cast<unsigned long long>(off.report.cycles),
                static_cast<unsigned long long>(on.report.cycles),
                dc - 100.0,
                static_cast<unsigned long long>(
                    off.report.totalStallCycles()),
                static_cast<unsigned long long>(
                    on.report.totalStallCycles()));
        }
    }

    if (!sink) {
        // The JSON path carries these on its pass and cell records.
        // COCO's cut-cache counts sit on the placement and autotune
        // records of the cells that solved the cuts.
        int64_t warm = 0, cold = 0;
        for (const std::vector<PassStats> &passes : runner.passStats()) {
            for (const PassStats &ps : passes) {
                warm += ps.value("coco_warm_starts");
                cold += ps.value("coco_cold_rebuilds");
            }
        }
        std::printf("coco cuts: %lld from cache, %lld built and solved\n",
                    static_cast<long long>(warm),
                    static_cast<long long>(cold));
        if (opts.autotune) {
            int iterations = 0, accepted = 0, rejected = 0;
            for (const PipelineResult &r : results) {
                iterations += r.autotune_iterations;
                accepted += r.autotune_moves_accepted;
                rejected += r.autotune_moves_rejected;
            }
            std::printf("autotune: %d iterations, %d moves accepted, "
                        "%d rejected\n",
                        iterations, accepted, rejected);
        }
    }

    if (sink) {
        JsonObject summary;
        summary.num("schema", int64_t{1})
            .str("type", "profile-summary")
            .num("cells", static_cast<int64_t>(cells.size()))
            .str("conservation", "ok");
        sink->write(summary);
    }
    if (trace) {
        trace->writeFile(opts.trace_path);
        if (!opts.quiet)
            std::fprintf(stderr,
                         "[gmt-profile] trace: %s (%zu events)\n",
                         opts.trace_path.c_str(), trace->numEvents());
    }
    if (!opts.quiet) {
        const ExperimentSummary &s = runner.summary();
        std::fprintf(stderr,
                     "[gmt-profile] %d cells, %d jobs, %.0f ms wall, "
                     "conservation ok\n",
                     s.cells, s.jobs, s.wall_ms);
    }
    return 0;
}
