/**
 * @file
 * gmt-lint: standalone MT-verification linter.
 *
 * Runs the code-generation pipeline (build-ir through queue-alloc)
 * for every requested workload × scheduler × COCO cell, then runs the
 * full static MT verifier (src/mtverify) over the generated program
 * and reports every diagnostic. Unlike the in-pipeline verify-mt pass
 * — which dies on the first bad cell — the linter collects findings
 * across all cells, prints them (and optionally emits JSONL records),
 * and exits nonzero iff any cell has errors (or, under --werror, any
 * warnings).
 *
 *   gmt-lint [--only W1,W2,...] [--ir FILE.gmt ...]
 *            [--scheduler dswp|gremio|both]
 *            [--coco on|off|both] [--threads N] [--max-queues N]
 *            [--static-profile] [--hb|--no-hb] [--werror]
 *            [--json FILE] [--quiet]
 *
 * Findings are collected across the whole matrix, sorted (code, then
 * cell, then block/pos/instr/queue/thread/message) and deduplicated
 * before rendering, so the text and --json outputs are byte-stable
 * regardless of cell evaluation order.
 *
 * `--ir FILE.gmt` (repeatable) lints serialized cells instead of the
 * built-in workloads: each file is parsed, IR-verified (a malformed
 * file is itself a lint error), then run through the same codegen +
 * MT-verification matrix. This is the replay path for gmt-fuzz repros.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "mtverify/mtverify.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "workloads/serialize.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace gmt;

struct LintOptions
{
    std::vector<std::string> only;
    std::vector<std::string> ir_files;
    std::vector<Scheduler> schedulers{Scheduler::Dswp,
                                      Scheduler::Gremio};
    std::vector<bool> coco_modes{false, true};
    int num_threads = 2;
    int max_queues = 0;
    bool static_profile = false;
    bool hb = true;
    bool werror = false;
    std::string json_path;
    bool quiet = false;
};

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [--only W1,W2,...] [--ir FILE.gmt ...] "
        "[--scheduler dswp|gremio|both] "
        "[--coco on|off|both] [--threads N] [--max-queues N] "
        "[--static-profile] [--hb|--no-hb] [--werror] "
        "[--json FILE] [--quiet]\n",
        argv0);
    std::exit(exit_code);
}

LintOptions
parseArgs(int argc, char **argv)
{
    LintOptions opts;
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
        if (arg == "--only") {
            opts.only = splitCsv(value());
        } else if (arg == "--ir") {
            opts.ir_files.push_back(value());
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
        } else if (arg == "--coco") {
            std::string v = value();
            if (v == "on")
                opts.coco_modes = {true};
            else if (v == "off")
                opts.coco_modes = {false};
            else if (v == "both")
                opts.coco_modes = {false, true};
            else
                usage(argv[0], 2);
        } else if (arg == "--threads") {
            opts.num_threads = static_cast<int>(
                intFlag(argv[0], arg, value(), 1, kMaxThreads, usage));
        } else if (arg == "--max-queues") {
            opts.max_queues = static_cast<int>(
                intFlag(argv[0], arg, value(), 0, INT_MAX, usage));
        } else if (arg == "--static-profile") {
            opts.static_profile = true;
        } else if (arg == "--hb") {
            opts.hb = true;
        } else if (arg == "--no-hb") {
            opts.hb = false;
        } else if (arg == "--werror") {
            opts.werror = true;
        } else if (arg == "--json") {
            opts.json_path = value();
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

void
emitDiagRecord(StatsSink &sink, const std::string &cell,
               const MtvDiag &d)
{
    JsonObject rec;
    rec.str("type", "diag")
        .str("cell", cell)
        .str("code", std::string(mtvCodeName(d.code)))
        .str("severity", std::string(mtvSeverityName(d.severity)))
        .num("thread", static_cast<int64_t>(d.thread))
        .num("block", static_cast<int64_t>(d.block))
        .num("pos", static_cast<int64_t>(d.pos))
        .num("instr", static_cast<int64_t>(d.instr))
        .num("queue", static_cast<int64_t>(d.queue))
        .str("message", d.message);
    sink.write(rec);
}

} // namespace

int
main(int argc, char **argv)
{
    LintOptions opts = parseArgs(argc, argv);

    std::unique_ptr<StatsSink> sink;
    if (!opts.json_path.empty()) {
        try {
            sink = std::make_unique<StatsSink>(opts.json_path);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    int cells = 0, total_errors = 0, total_warnings = 0;
    int broken_cells = 0;
    int64_t hb_pairs = 0;
    std::vector<std::pair<std::string, MtvDiag>> findings;

    std::vector<Workload> workloads;
    if (opts.ir_files.empty()) {
        workloads = allWorkloads();
    } else {
        // Lint serialized cells: a file that fails to parse or
        // IR-verify is a finding in its own right, not a tool crash.
        for (const std::string &path : opts.ir_files) {
            try {
                workloads.push_back(loadWorkloadFile(path));
            } catch (const FatalError &e) {
                ++broken_cells;
                std::fprintf(stderr, "gmt-lint: %s: %s\n",
                             path.c_str(), e.what());
            }
        }
    }
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
                             "gmt-lint: unknown workload '%s'\n",
                             name.c_str());
                return 2;
            }
        }
        workloads = std::move(picked);
    }

    for (const Workload &w : workloads) {
        for (Scheduler sched : opts.schedulers) {
            for (bool coco : opts.coco_modes) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.num_threads = opts.num_threads;
                po.max_queues = opts.max_queues;
                po.static_profile = opts.static_profile;
                po.simulate = false;
                po.verify_mt = false; // the linter verifies itself

                PipelineContext ctx(w, po);
                ++cells;
                try {
                    PassManager::codegenPipeline().run(ctx);
                } catch (const std::exception &e) {
                    // Codegen itself failed; report and keep linting
                    // the other cells.
                    ++broken_cells;
                    std::fprintf(stderr,
                                 "gmt-lint: %s: pipeline failed: %s\n",
                                 ctx.cellId().c_str(), e.what());
                    continue;
                }

                MtVerifyResult res =
                    verifyMtProgram(mtVerifyInput(ctx, opts.hb));

                total_errors += res.errors();
                total_warnings += res.warnings();
                hb_pairs += res.hb_pairs;
                for (MtvDiag &d : res.diags)
                    findings.emplace_back(ctx.cellId(), std::move(d));
            }
        }
    }

    // Deterministic report: order by code, then cell, then
    // coordinates, then drop exact repeats — byte-stable output no
    // matter how the matrix was traversed.
    std::stable_sort(findings.begin(), findings.end(),
                     [](const auto &a, const auto &b) {
                         const MtvDiag &x = a.second, &y = b.second;
                         return std::tie(x.code, a.first, x.block,
                                         x.pos, x.instr, x.queue,
                                         x.thread, x.severity,
                                         x.message) <
                                std::tie(y.code, b.first, y.block,
                                         y.pos, y.instr, y.queue,
                                         y.thread, y.severity,
                                         y.message);
                     });
    findings.erase(std::unique(findings.begin(), findings.end()),
                   findings.end());
    for (const auto &[cell, d] : findings) {
        std::fprintf(stderr, "%s: %s\n", cell.c_str(),
                     renderDiag(d).c_str());
        if (sink)
            emitDiagRecord(*sink, cell, d);
    }

    if (sink) {
        JsonObject summary;
        summary.str("type", "lint-summary")
            .num("cells", static_cast<int64_t>(cells))
            .num("errors", static_cast<int64_t>(total_errors))
            .num("warnings", static_cast<int64_t>(total_warnings))
            .num("broken_cells", static_cast<int64_t>(broken_cells))
            .num("hb_pairs", hb_pairs);
        sink->write(summary);
    }
    if (!opts.quiet)
        std::fprintf(stderr,
                     "[gmt-lint] %d cells, %d broken, %d errors, "
                     "%d warnings\n",
                     cells, broken_cells, total_errors, total_warnings);

    if (total_errors > 0 || broken_cells > 0)
        return 1;
    if (opts.werror && total_warnings > 0)
        return 1;
    return 0;
}
