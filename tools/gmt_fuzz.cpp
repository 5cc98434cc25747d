/**
 * @file
 * gmt-fuzz: differential fuzzing harness for the schedulers.
 *
 * Per seed: generate a random workload cell (workloads/generate.hpp),
 * run the full pipeline over the DSWP/GREMIO x COCO on/off matrix with
 * every oracle armed — static MT verification including the
 * happens-before race check, MT==ST output equivalence, queue drain,
 * comm-plan validation — and additionally require the timing
 * simulator with cycle skipping on (SimEngine::Fast) and off
 * (SimEngine::Reference) to agree field-for-field on the
 * PipelineResult, and every executor of the generated program (the MT
 * interpreter under round-robin and random interleaving, the
 * simulator) to match the ST reference and each other's per-thread
 * counts: the premise that lets the pipeline run a simulated cell's
 * program once, in the simulator. The MT verifier runs first as a
 * structured oracle:
 * any error diagnostic (e.g. hb-data-race) becomes the failure
 * signature, keyed by its stable code, so the reducer shrinks against
 * the code rather than a free-text message and the repro filename is
 * tagged with it. On a violation the failing cell is greedily reduced
 * (same failure signature) and dumped as a minimal `.gmt` repro,
 * replayable with `gmt-lint --ir FILE` or any bench driver via
 * `--workload-dir`.
 *
 *   gmt-fuzz [--seeds N] [--start S] [--jobs J] [--threads T]
 *            [--autotune] [--out FILE.jsonl] [--repro-dir DIR]
 *            [--no-reduce] [--quiet]
 *   gmt-fuzz --parse [--ir-dir DIR] [--seeds N] [--start S]
 *            [--out FILE.jsonl] [--quiet]
 *
 * --autotune additionally runs the feedback-directed autotuner on
 * every cell: the loop statically verifies (incl. happens-before)
 * each accepted intermediate schedule and oracles the final one
 * against the single-threaded reference, and the skip on/off
 * equality check then covers the tuned result.
 *
 * Seeds are batched one task per seed on the shared ThreadPool; the
 * JSONL stream carries one `type:"fuzz"` record per seed, then one
 * `type:"fuzz-summary"` record with the seed, cell and violation
 * totals.
 * Exit status: 0 iff every seed was violation-free.
 *
 * --parse fuzzes the text loader instead. Seed S damages the `.gmt`
 * cell S mod K of the K cells in --ir-dir (default workloads/ir) with
 * mutateCellText (bit flips, truncations, line splices, out-of-range
 * register, queue and label ids) and loads the mutant with
 * workloadFromText. It must load, or be rejected with a FatalError
 * that names a line; any other exception is a violation, and a crash,
 * hang or sanitizer report ends the run. One `type:"fuzz-parse"`
 * record per seed, then one `type:"fuzz-parse-summary"` record.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pass_manager.hpp"
#include "driver/pipeline.hpp"
#include "driver/stats.hpp"
#include "mtverify/mtverify.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "workloads/generate.hpp"
#include "workloads/serialize.hpp"

namespace
{

using namespace gmt;

struct FuzzOptions
{
    uint64_t seeds = 100;
    uint64_t start = 0;
    int jobs = 0; ///< 0 = hardware default
    int num_threads = 2;
    std::string out_path;
    std::string repro_dir = "fuzz-repros";
    bool reduce = true;
    bool quiet = false;

    /**
     * Close the feedback loop on every cell: the pipeline runs the
     * autotuner (which statically verifies — happens-before included
     * — each accepted intermediate schedule and oracles the final
     * one against the ST reference), and the skip on/off equality
     * check below then applies to the final tuned schedule, baseline
     * cycles and iteration/move counts included.
     */
    bool autotune = false;

    /** Fuzz the `.gmt` loader with mutants of the cells in ir_dir. */
    bool parse = false;
    std::string ir_dir = "workloads/ir";
};

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [--seeds N] [--start S] [--jobs J] [--threads T] "
        "[--autotune] [--out FILE.jsonl] [--repro-dir DIR] "
        "[--no-reduce] [--quiet]\n"
        "       %s --parse [--ir-dir DIR] [--seeds N] [--start S] "
        "[--out FILE.jsonl] [--quiet]\n",
        argv0, argv0);
    std::exit(exit_code);
}

FuzzOptions
parseArgs(int argc, char **argv)
{
    FuzzOptions opts;
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
            return intFlag(argv[0], arg, value(), lo, hi, usage);
        };
        if (arg == "--seeds")
            opts.seeds = static_cast<uint64_t>(number(1, INT64_MAX));
        else if (arg == "--start")
            opts.start = static_cast<uint64_t>(number(0, INT64_MAX));
        else if (arg == "--jobs")
            opts.jobs = static_cast<int>(number(0, kMaxJobs));
        else if (arg == "--threads")
            opts.num_threads = static_cast<int>(number(1, kMaxThreads));
        else if (arg == "--out")
            opts.out_path = value();
        else if (arg == "--repro-dir")
            opts.repro_dir = value();
        else if (arg == "--autotune")
            opts.autotune = true;
        else if (arg == "--parse")
            opts.parse = true;
        else if (arg == "--ir-dir")
            opts.ir_dir = value();
        else if (arg == "--no-reduce")
            opts.reduce = false;
        else if (arg == "--quiet")
            opts.quiet = true;
        else if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         arg.c_str());
            usage(argv[0], 2);
        }
    }
    return opts;
}

/** One scheduler x COCO configuration of the matrix. */
struct CellConfig
{
    Scheduler sched;
    bool coco;

    std::string
    label() const
    {
        return std::string(schedulerName(sched)) +
               (coco ? "+COCO" : "");
    }
};

constexpr CellConfig kMatrix[] = {
    {Scheduler::Dswp, false},
    {Scheduler::Dswp, true},
    {Scheduler::Gremio, false},
    {Scheduler::Gremio, true},
};

/**
 * What went wrong, stably across reduction: the cell config, the
 * failure kind, and a message prefix that outlives shrinking (cut at
 * the first digit so instruction/block ids and counts drop out).
 */
struct Signature
{
    std::string cell;
    std::string kind;   ///< "mtverify", "fatal", "panic",
                        ///< "engine-divergence", "executor-divergence"
    std::string prefix; ///< diag code for "mtverify"; otherwise the
                        ///< leading message text, digits stripped

    bool
    operator==(const Signature &o) const
    {
        return cell == o.cell && kind == o.kind && prefix == o.prefix;
    }
};

std::string
messagePrefix(const char *what)
{
    std::string p;
    for (const char *c = what; *c && p.size() < 48; ++c) {
        if (*c >= '0' && *c <= '9')
            break;
        p += *c;
    }
    return p;
}

PipelineOptions
cellOptions(const CellConfig &cfg, const FuzzOptions &fuzz,
            SimEngine engine)
{
    PipelineOptions po;
    po.scheduler = cfg.sched;
    po.use_coco = cfg.coco;
    po.num_threads = fuzz.num_threads;
    po.simulate = true;
    po.sim_engine = engine;
    po.verify_mt = true;
    po.autotune = fuzz.autotune;
    return po;
}

/**
 * Run @p prog (codegen of @p st_func) on every executor: the MT
 * interpreter under round-robin and random interleaving and the
 * timing simulator. Each must pass the oracle rule (outputMismatch:
 * live-outs, final memory, queue drain against the ST reference) and
 * produce the same per-thread counts. Returns the first divergence,
 * or "" when they all agree.
 */
std::string
executorDivergence(const Workload &w, const Function &st_func,
                   const MtProgram &prog, const MachineConfig &machine)
{
    auto input = [&w]() { return workloadMemory(w, /*ref=*/true); };
    MemoryImage st_mem = input();
    const auto st = interpret(st_func, w.ref_args, st_mem);

    std::vector<ThreadStats> rr_counts;
    for (SchedulePolicy policy :
         {SchedulePolicy::RoundRobin, SchedulePolicy::Random}) {
        const std::string name = policy == SchedulePolicy::RoundRobin
                                     ? "round-robin interpreter"
                                     : "random interpreter";
        MemoryImage mem = input();
        MtRunResult mt =
            interpretMt(prog, w.ref_args, mem, policy, /*seed=*/1);
        if (mt.deadlock)
            return name + " deadlocked";
        if (const char *what = outputMismatch(mt.live_outs, mem,
                                              mt.queues_drained,
                                              st.live_outs, st_mem))
            return name + " output differs from the ST reference: " +
                   what;
        if (policy == SchedulePolicy::RoundRobin)
            rr_counts = mt.stats;
        else if (mt.stats != rr_counts)
            return name + " counts differ from round-robin";
    }

    MemoryImage mem = input();
    SimResult sim = CmpSimulator(machine).run(prog, w.ref_args, mem);
    if (const char *what = outputMismatch(sim.live_outs, mem,
                                          sim.queues_drained,
                                          st.live_outs, st_mem))
        return std::string("simulator output differs from the ST "
                           "reference: ") +
               what;
    for (size_t t = 0; t < sim.core.size(); ++t)
        if (!(sim.core[t].counts == rr_counts.at(t)))
            return "simulator counts differ from the interpreter";
    return "";
}

/**
 * Run one (workload, config) cell with cycle skipping on and off and
 * every oracle armed. Returns true and fills @p sig on violation.
 */
bool
runCell(const Workload &w, const CellConfig &cfg,
        const FuzzOptions &fuzz, Signature *sig)
{
    sig->cell = cfg.label();
    try {
        // Structured verification oracle first: run codegen alone and
        // the full MT verifier (happens-before included) over it, so a
        // finding carries its stable diagnostic code instead of the
        // pipeline's free-text fatal. The codegen artifacts also feed
        // the executor check below.
        PipelineOptions po = cellOptions(cfg, fuzz, SimEngine::Fast);
        po.verify_mt = false; // verified right here instead
        PipelineContext ctx(w, po);
        PassManager::codegenPipeline().run(ctx);
        {
            MtVerifyResult res =
                verifyMtProgram(mtVerifyInput(ctx, /*check_hb=*/true));
            if (!res.ok()) {
                // Diags come back sorted; the first error's code is a
                // deterministic signature.
                for (const MtvDiag &d : res.diags) {
                    if (d.severity != MtvSeverity::Error)
                        continue;
                    sig->kind = "mtverify";
                    sig->prefix = std::string(mtvCodeName(d.code));
                    return true;
                }
            }
        }

        PipelineResult fast =
            runPipeline(w, cellOptions(cfg, fuzz, SimEngine::Fast));
        PipelineResult ref = runPipeline(
            w, cellOptions(cfg, fuzz, SimEngine::Reference));
        if (!(fast == ref)) {
            sig->kind = "engine-divergence";
            sig->prefix = "fast and reference timing disagree";
            return true;
        }

        std::string diverged = executorDivergence(
            w, ctx.ir->func, ctx.prog->prog, po.machine);
        if (!diverged.empty()) {
            sig->kind = "executor-divergence";
            sig->prefix = diverged;
            return true;
        }
    } catch (const FatalError &e) {
        sig->kind = "fatal";
        sig->prefix = messagePrefix(e.what());
        return true;
    } catch (const PanicError &e) {
        sig->kind = "panic";
        sig->prefix = messagePrefix(e.what());
        return true;
    }
    return false;
}

/** Does @p w still fail with exactly @p want? (reducer predicate) */
bool
reproduces(const Workload &w, const CellConfig &cfg,
           const FuzzOptions &fuzz, const Signature &want)
{
    Signature got;
    return runCell(w, cfg, fuzz, &got) && got == want;
}

struct SeedOutcome
{
    uint64_t seed = 0;
    bool violation = false;
    Signature sig;
    std::string repro_path;
};

/** The N of the first "at line N" in @p message, or -1. */
int64_t
citedLine(const std::string &message)
{
    const std::string_view tag = "at line ";
    size_t at = message.find(tag);
    if (at == std::string::npos)
        return -1;
    int64_t line = -1;
    for (size_t i = at + tag.size();
         i < message.size() && message[i] >= '0' && message[i] <= '9'; ++i)
        line = std::max<int64_t>(line, 0) * 10 + (message[i] - '0');
    return line;
}

/** --parse: load mutants of the corpus (see the file comment). */
int
runParseFuzz(const FuzzOptions &opts, StatsSink *sink)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    std::error_code ec;
    for (fs::directory_iterator it(opts.ir_dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file() && it->path().extension() == ".gmt")
            paths.push_back(it->path());
    }
    if (ec || paths.empty()) {
        std::fprintf(stderr, "gmt-fuzz: no .gmt cells in %s\n",
                     opts.ir_dir.c_str());
        return 2;
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const fs::path &p : paths) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        texts.push_back(buf.str());
    }

    uint64_t loaded = 0, rejected = 0, violations = 0;
    for (uint64_t s = 0; s < opts.seeds; ++s) {
        const uint64_t seed = opts.start + s;
        const size_t cell = seed % texts.size();
        TextMutant m = mutateCellText(texts[cell], seed);
        std::string status = "loaded", message;
        int64_t line = -1;
        try {
            workloadFromText(m.text, "<mutant>");
            ++loaded;
        } catch (const FatalError &e) {
            message = e.what();
            line = citedLine(message);
        } catch (const std::exception &e) {
            message = e.what();
        }
        if (line >= 0) {
            status = "rejected";
            ++rejected;
        } else if (!message.empty()) {
            status = "violation";
            ++violations;
            std::fprintf(stderr,
                         "[gmt-fuzz] parse seed %llu VIOLATION (%s of "
                         "%s): %s\n",
                         static_cast<unsigned long long>(seed),
                         m.kind.c_str(), paths[cell].filename().c_str(),
                         message.c_str());
        }
        if (sink) {
            JsonObject rec;
            rec.str("type", "fuzz-parse")
                .num("seed", seed)
                .str("cell", paths[cell].stem().string())
                .str("mutation", m.kind)
                .str("status", status);
            if (line >= 0)
                rec.num("line", line);
            else if (!message.empty())
                rec.str("message", messagePrefix(message.c_str()));
            sink->write(rec);
        }
    }

    if (sink) {
        JsonObject rec;
        rec.str("type", "fuzz-parse-summary")
            .num("mutants", opts.seeds)
            .num("cells", static_cast<uint64_t>(texts.size()))
            .num("loaded", loaded)
            .num("rejected", rejected)
            .num("violations", violations);
        sink->write(rec);
    }
    if (!opts.quiet)
        std::fprintf(stderr,
                     "[gmt-fuzz] parse: %llu mutants of %zu cells, %llu "
                     "loaded, %llu rejected with a line, %llu "
                     "violations\n",
                     static_cast<unsigned long long>(opts.seeds),
                     texts.size(), static_cast<unsigned long long>(loaded),
                     static_cast<unsigned long long>(rejected),
                     static_cast<unsigned long long>(violations));
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts = parseArgs(argc, argv);

    std::unique_ptr<StatsSink> sink;
    if (!opts.out_path.empty()) {
        try {
            sink = std::make_unique<StatsSink>(opts.out_path);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }
    if (opts.parse)
        return runParseFuzz(opts, sink.get());

    int jobs = opts.jobs > 0 ? opts.jobs : ThreadPool::hardwareDefault();
    ThreadPool pool(jobs);

    // Guarded by mu, like violations.
    std::mutex mu;
    std::vector<SeedOutcome> violations;
    uint64_t seeds_run = 0, cells_run = 0;

    for (uint64_t s = 0; s < opts.seeds; ++s) {
        uint64_t seed = opts.start + s;
        pool.submit([seed, &opts, &mu, &violations, &sink, &seeds_run,
                     &cells_run]() {
            SeedOutcome out;
            out.seed = seed;
            Workload w = generateWorkload(seed);
            uint64_t cells = 0;
            for (const CellConfig &cfg : kMatrix) {
                ++cells;
                Signature sig;
                if (!runCell(w, cfg, opts, &sig))
                    continue;
                out.violation = true;
                out.sig = sig;

                Workload repro = w;
                if (opts.reduce) {
                    repro = reduceWorkload(
                        w, [&](const Workload &c) {
                            return reproduces(c, cfg, opts, sig);
                        });
                }
                try {
                    std::filesystem::create_directories(
                        opts.repro_dir);
                    out.repro_path =
                        opts.repro_dir + "/" + w.name + "-" +
                        std::string(schedulerName(cfg.sched)) +
                        (cfg.coco ? "-coco" : "") +
                        (sig.kind == "mtverify" ? "-" + sig.prefix
                                                : "") +
                        ".gmt";
                    saveWorkloadFile(repro, out.repro_path);
                } catch (const std::exception &e) {
                    std::fprintf(stderr,
                                 "gmt-fuzz: cannot dump repro: %s\n",
                                 e.what());
                }
                break; // one violation per seed is enough
            }

            std::lock_guard<std::mutex> lock(mu);
            ++seeds_run;
            cells_run += cells;
            if (out.violation) {
                violations.push_back(out);
                std::fprintf(
                    stderr,
                    "[gmt-fuzz] seed %llu VIOLATION %s: %s '%s'%s%s\n",
                    static_cast<unsigned long long>(out.seed),
                    out.sig.cell.c_str(), out.sig.kind.c_str(),
                    out.sig.prefix.c_str(),
                    out.repro_path.empty() ? "" : " repro: ",
                    out.repro_path.c_str());
            }
            if (sink) {
                JsonObject rec;
                rec.str("type", "fuzz")
                    .num("seed", static_cast<uint64_t>(out.seed))
                    .str("status", out.violation ? "violation" : "ok");
                if (out.violation) {
                    rec.str("cell", out.sig.cell)
                        .str("kind", out.sig.kind)
                        .str("message", out.sig.prefix)
                        .str("repro", out.repro_path);
                }
                sink->write(rec);
            }
        });
    }
    pool.wait();

    if (sink) {
        JsonObject rec;
        rec.str("type", "fuzz-summary")
            .num("seeds", seeds_run)
            .num("cells", cells_run)
            .num("violations", static_cast<uint64_t>(violations.size()));
        sink->write(rec);
    }
    if (!opts.quiet)
        std::fprintf(
            stderr,
            "[gmt-fuzz] %llu seeds x %zu cells, %zu violations\n",
            static_cast<unsigned long long>(opts.seeds),
            std::size(kMatrix), violations.size());

    return violations.empty() ? 0 : 1;
}
