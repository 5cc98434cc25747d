/**
 * @file
 * gmtbench: times one benchmark workload end to end, checks every
 * output, and prints the metrics as one JSON line (the last line of
 * stdout).
 *
 *   gmtbench --workload fig8|autotune|compile --seed N --seconds S
 *            --trace 0|1 --expected FILE [--spans FILE] [--smoke]
 *            [--emit-expected]
 *
 * --trace 0 runs timed batches, each on a fresh ExperimentRunner (so a
 * fresh artifact cache) and serially, and reports the end-to-end
 * metrics. --trace 1 alternates untimed-style batches with traced
 * replays (replay.hpp) and reports the per-layer metrics. --smoke
 * shrinks every batch to a couple of kernels; --emit-expected prints
 * the expected-results lines of the first batch instead of measuring.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "replay.hpp"
#include "spans.hpp"

using namespace gmtbench;
using gmt::ExperimentOptions;
using gmt::ExperimentRunner;
using gmt::PipelineResult;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string expected;
    std::string spans;
    bool smoke = false;
    bool emit_expected = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gmtbench: " << why
              << "\nusage: gmtbench --workload fig8|autotune|compile "
                 "--seed N --seconds S --trace 0|1 --expected FILE "
                 "[--spans FILE] [--smoke] [--emit-expected]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--seconds")
            a.seconds = std::stod(value());
        else if (arg == "--trace")
            a.trace = value() == "1";
        else if (arg == "--expected")
            a.expected = value();
        else if (arg == "--spans")
            a.spans = value();
        else if (arg == "--smoke")
            a.smoke = true;
        else if (arg == "--emit-expected")
            a.emit_expected = true;
        else
            usage("unknown argument " + arg);
    }
    if (a.workload.empty() || a.expected.empty())
        usage("--workload and --expected are required");
    return a;
}

Kind
parseKind(const std::string &name)
{
    if (name == "fig8")
        return Kind::Fig8;
    if (name == "autotune")
        return Kind::Autotune;
    if (name == "compile")
        return Kind::Compile;
    usage("unknown workload " + name);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Metrics in print order: name -> (value, unit). */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    void
    printTable(std::ostream &os) const
    {
        for (const Item &m : items_)
            os << "  " << m.name << " = " << num(m.value) << ' ' << m.unit
               << '\n';
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < items_.size(); ++i) {
            const Item &m = items_[i];
            s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                 num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        return s + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };

    /** Shortest round-trip form: every digit as measured. */
    static std::string
    num(double v)
    {
        if (!std::isfinite(v))
            v = 0.0;
        char buf[64];
        auto r = std::to_chars(buf, buf + sizeof buf, v);
        return std::string(buf, r.ptr);
    }

    std::vector<Item> items_;
};

/**
 * Moves the (single) benchmark thread to the next allowed CPU before
 * each batch. On a shared host one core can be slowed for seconds by
 * a neighbour on its sibling hyperthread; rotating spreads that over
 * a quarter of the batches, where the median ignores it, instead of
 * over a whole run. The original affinity is restored at exit.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Cell bookkeeping shared by every check. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(const std::string &what, uint64_t cells = 1)
    {
        failed += cells;
        problems.push_back(what);
    }
};

/** One untimed-equivalent batch (fresh runner) and its outputs. */
struct Batch
{
    double ms = 0.0;
    std::vector<PipelineResult> results;
    std::vector<CompileResult> compile;
    gmt::ArtifactCache::Counters cache;
};

Batch
runBatch(const Inputs &in, std::unique_ptr<ExperimentRunner> *keep = nullptr,
         std::vector<gmt::MtProgram> *programs = nullptr)
{
    Batch b;
    auto t0 = Clock::now();
    if (in.kind == Kind::Compile) {
        b.compile = runCompileBatch(in, programs);
        b.ms = msSince(t0);
        return b;
    }
    ExperimentOptions eo;
    eo.jobs = 1;
    auto runner = std::make_unique<ExperimentRunner>(eo);
    b.results = runner->runAll(in.cells);
    b.ms = msSince(t0);
    b.cache = runner->summary().cache;
    if (keep)
        *keep = std::move(runner);
    return b;
}

/** Compare a batch's per-cell results with the reference batch. */
template <typename T>
void
checkSame(const std::vector<T> &got, const std::vector<T> &want,
          const Inputs &in, const char *what, Tally &tally)
{
    for (size_t i = 0; i < in.cells.size(); ++i)
        if (i >= got.size() || i >= want.size() || !(got[i] == want[i]))
            tally.fail(std::string(what) + " differs for " +
                       cellId(in.cells[i]));
}

void
checkExpected(const std::string &workload, const Inputs &in,
              const std::vector<Outcome> &outcomes, const Expected &ex,
              Tally &tally)
{
    // Pinned generator output: a changed generator stops the run.
    if (in.kind == Kind::Compile && in.seed == kDefaultSeed) {
        for (const gmt::ExperimentCell &c : in.cells) {
            auto it = ex.digests.find(c.workload.name);
            if (it == ex.digests.end() || it->second != c.workload.digest)
                throw std::runtime_error(
                    "generated cell " + c.workload.name +
                    " does not match its pinned digest: the generator "
                    "changed, so the compile workload would too");
        }
    }
    auto wit = ex.cells.find(workload);
    for (const Outcome &o : outcomes) {
        const Outcome *want = nullptr;
        if (wit != ex.cells.end()) {
            auto cit = wit->second.find(o.id);
            if (cit != wit->second.end())
                want = &cit->second;
        }
        if (!want) {
            // Only the default seed's compile cells are pinned.
            if (in.kind != Kind::Compile || in.seed == kDefaultSeed)
                tally.fail("no expected result for " + o.id);
            continue;
        }
        if (!(o == *want))
            tally.fail("result differs from expected file for " + o.id);
    }
}

double
speedupGeomean(const Inputs &in, const std::vector<Outcome> &outcomes)
{
    double log_sum = 0.0;
    int n = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        // autotune: the tuned cells; otherwise every cell.
        if (in.kind == Kind::Autotune && !in.cells[i].opts.autotune)
            continue;
        const Outcome &o = outcomes[i];
        if (o.mt_cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(o.st_cycles) /
                            static_cast<double>(o.mt_cycles));
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Layers in report order; "driver" is the batch/cell glue. */
const char *const kLayers[] = {"ir",   "runtime", "analysis", "pdg",
                               "partition", "coco", "mtcg", "mtverify",
                               "sim",  "autotune", "driver"};

/** Per-layer values of one traced batch. */
std::map<std::string, double>
tracedValues(const SpanRecorder &rec, const LayerCounts &c, Tally &tally)
{
    std::map<std::string, double> v;
    const std::map<std::string, double> self = rec.selfMs();
    std::map<std::string, double> layer;
    for (const auto &[name, ms] : self) {
        const std::string l = layerOf(name);
        layer[(l == "batch" || l == "cell") ? "driver" : l] += ms;
    }
    const double wall = rec.rootMs();
    double sum = 0.0;
    for (const auto &[name, ms] : layer)
        sum += ms;
    if (std::fabs(sum - wall) > 1e-6 * std::max(1.0, wall))
        tally.fail("layer self times do not sum to the traced wall time");

    auto get = [&self](const char *n) {
        auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    const double st_ms = get("runtime.st");
    const double mt_ms = get("runtime.mt");
    const double sim_ms = get("sim.st") + get("sim.mt");
    v["traced_batch_ms"] = wall;
    v["runtime.st_ms"] = st_ms;
    v["runtime.st_ns_per_instr"] = ratio(st_ms * 1e6, c.st_dyn_instrs);
    v["runtime.mt_ms"] = mt_ms;
    v["runtime.mt_ns_per_instr"] = ratio(mt_ms * 1e6, c.mt_dyn_instrs);
    v["runtime.mem_fill_ms"] = get("runtime.mem_fill");
    v["sim.decode_ms"] = get("sim.decode");
    v["sim.st_ms"] = get("sim.st");
    v["sim.mt_ms"] = get("sim.mt");
    v["sim.ns_per_cycle"] = ratio(sim_ms * 1e6, c.sim_cycles);
    v["autotune.ms"] = layer["autotune"];
    v["autotune.ms_per_candidate"] =
        ratio(layer["autotune"], c.at_candidates);
    v["pdg.ms"] = layer["pdg"];
    v["pdg.us_per_instr"] = ratio(layer["pdg"] * 1e3, c.pdg_instrs);
    v["analysis.ms"] = layer["analysis"];
    v["partition.ms"] = layer["partition"];
    v["coco.ms"] = layer["coco"];
    v["coco.us_per_solve"] = ratio(layer["coco"] * 1e3, c.coco_cut_solves);
    v["mtcg.ms"] = layer["mtcg"];
    v["mtverify.ms"] = layer["mtverify"];
    v["mtverify.us_per_emitted_instr"] =
        ratio(layer["mtverify"] * 1e3, c.mtverify_instrs);
    v["ir.ms"] = layer["ir"];
    v["driver.unattributed_ms"] = layer["driver"];
    for (const char *l : kLayers)
        v[std::string(l) + ".share"] = ratio(layer[l], wall);
    return v;
}

/** Exact per-batch counts, named as in BENCHMARK.json. */
std::vector<std::pair<std::string, double>>
countValues(const LayerCounts &c)
{
    auto d = [](uint64_t x) { return static_cast<double>(x); };
    return {
        {"runtime.st_dyn_instrs", d(c.st_dyn_instrs)},
        {"runtime.mt_dyn_instrs", d(c.mt_dyn_instrs)},
        {"runtime.mt_comm_instrs", d(c.mt_comm_instrs)},
        {"runtime.mem_fills", d(c.mem_fills)},
        {"sim.runs", d(c.sim_runs)},
        {"sim.cycles", d(c.sim_cycles)},
        {"sim.skip_ratio",
         ratio(d(c.sim_skipped), d(c.sim_skipped + c.sim_swept))},
        {"autotune.rounds", d(c.at_rounds)},
        {"autotune.candidates", d(c.at_candidates)},
        {"autotune.accept_ratio", ratio(d(c.at_accepted), d(c.at_candidates))},
        {"pdg.arcs", d(c.pdg_arcs)},
        {"partition.cross_arcs", d(c.cross_arcs)},
        {"coco.iterations", d(c.coco_iterations)},
        {"coco.cut_solves", d(c.coco_cut_solves)},
        {"mtcg.emitted_instrs", d(c.mtcg_emitted_instrs)},
        {"mtcg.queues", d(c.mtcg_queues)},
        {"mtverify.hb_pairs", d(c.mtverify_hb_pairs)},
        {"ir.instrs", d(c.ir_instrs)},
    };
}

struct Unit
{
    const char *name;
    const char *unit;
};

/** The per-layer metrics in print order (BENCHMARK.json's per_layer). */
const Unit kPerLayer[] = {
    {"runtime.st_ms", "ms"},
    {"runtime.st_dyn_instrs", "count"},
    {"runtime.st_ns_per_instr", "ns/instr"},
    {"runtime.mt_ms", "ms"},
    {"runtime.mt_dyn_instrs", "count"},
    {"runtime.mt_ns_per_instr", "ns/instr"},
    {"runtime.mt_comm_instrs", "count"},
    {"runtime.mem_fill_ms", "ms"},
    {"runtime.mem_fills", "count"},
    {"sim.decode_ms", "ms"},
    {"sim.st_ms", "ms"},
    {"sim.mt_ms", "ms"},
    {"sim.runs", "count"},
    {"sim.cycles", "count"},
    {"sim.ns_per_cycle", "ns/cycle"},
    {"sim.skip_ratio", "frac"},
    {"autotune.ms", "ms"},
    {"autotune.rounds", "count"},
    {"autotune.candidates", "count"},
    {"autotune.accept_ratio", "frac"},
    {"autotune.ms_per_candidate", "ms/candidate"},
    {"pdg.ms", "ms"},
    {"pdg.arcs", "count"},
    {"pdg.us_per_instr", "us/instr"},
    {"analysis.ms", "ms"},
    {"partition.ms", "ms"},
    {"partition.cross_arcs", "count"},
    {"coco.ms", "ms"},
    {"coco.iterations", "count"},
    {"coco.cut_solves", "count"},
    {"coco.us_per_solve", "us/solve"},
    {"mtcg.ms", "ms"},
    {"mtcg.emitted_instrs", "count"},
    {"mtcg.queues", "count"},
    {"mtverify.ms", "ms"},
    {"mtverify.hb_pairs", "count"},
    {"mtverify.us_per_emitted_instr", "us/instr"},
    {"ir.ms", "ms"},
    {"ir.instrs", "count"},
    {"workloads.generate_ms", "ms"},
    {"driver.cache_hit_ratio", "frac"},
    {"driver.unattributed_ms", "ms"},
    {"ir.share", "frac"},
    {"runtime.share", "frac"},
    {"analysis.share", "frac"},
    {"pdg.share", "frac"},
    {"partition.share", "frac"},
    {"coco.share", "frac"},
    {"mtcg.share", "frac"},
    {"mtverify.share", "frac"},
    {"sim.share", "frac"},
    {"autotune.share", "frac"},
    {"driver.share", "frac"},
    {"traced_batch_ms", "ms"},
    {"untraced_batch_ms", "ms"},
    {"trace_overhead_frac", "frac"},
};

int
run(const Args &args)
{
    const Kind kind = parseKind(args.workload);
    const Expected expected = readExpected(args.expected);
    CpuRotation cpus;

    // Set-up, repeated so its median is steady; the last copy is used.
    const int setup_reps =
        args.smoke ? 1 : (kind == Kind::Compile ? 8 : 40);
    std::vector<double> setup_s, generate_ms;
    Inputs in;
    for (int r = 0; r < setup_reps; ++r) {
        cpus.next();
        auto t0 = Clock::now();
        Inputs built = makeInputs(kind, args.seed, args.smoke);
        setup_s.push_back(msSince(t0) / 1e3);
        generate_ms.push_back(built.generate_ms);
        in = std::move(built);
    }
    const size_t ncells = in.cells.size();
    std::cout << "gmtbench: workload " << args.workload << ", seed "
              << args.seed << ", " << ncells << " cells per batch";
    if (kind == Kind::Compile)
        std::cout << ", " << in.replaced_seeds
                  << " faulting generator seeds replaced";
    std::cout << '\n';

    // First batch: untimed; every later batch must equal it, and its
    // outcomes must equal the expected-results file.
    Tally tally;
    std::unique_ptr<ExperimentRunner> runner0;
    std::vector<gmt::MtProgram> programs;
    Batch first = runBatch(in, &runner0, &programs);
    tally.attempted += ncells;
    std::vector<Outcome> outcomes;
    if (kind == Kind::Compile) {
        std::vector<std::string> failures;
        outcomes = compileOutcomes(in, first.compile, programs, failures);
        for (const std::string &f : failures)
            tally.fail("execution check failed: " + f);
    } else {
        outcomes = pipelineOutcomes(in, first.results, *runner0);
    }
    runner0.reset();
    programs.clear();
    if (args.emit_expected) {
        std::cout << formatExpected(args.workload, in, outcomes);
        return 0;
    }
    checkExpected(args.workload, in, outcomes, expected, tally);

    auto compare = [&](const Batch &b, const char *what) {
        if (kind == Kind::Compile)
            checkSame(b.compile, first.compile, in, what, tally);
        else
            checkSame(b.results, first.results, in, what, tally);
    };
    auto guarded = [&](auto &&fn) {
        try {
            fn();
        } catch (const std::exception &e) {
            tally.fail(std::string("batch failed: ") + e.what(), ncells);
        }
    };

    const int min_batches = 2;
    MetricSet metrics;
    std::vector<double> untraced_ms;
    auto start = Clock::now();
    auto more = [&](size_t done) {
        return done < static_cast<size_t>(min_batches) ||
               msSince(start) < args.seconds * 1e3;
    };

    if (!args.trace) {
        while (more(untraced_ms.size())) {
            tally.attempted += ncells;
            cpus.next();
            guarded([&] {
                Batch b = runBatch(in);
                untraced_ms.push_back(b.ms);
                compare(b, "batch result");
            });
            if (tally.failed > 0 && untraced_ms.empty())
                break;
        }
        std::vector<double> sorted = untraced_ms;
        std::sort(sorted.begin(), sorted.end());
        const size_t n = sorted.size();
        // Highest percentile with at least ten batches beyond it.
        const size_t tail_idx = n > 10 ? n - 11 : (n ? n - 1 : 0);
        const double tail = n ? sorted[tail_idx] : 0.0;
        const int tail_pct =
            n > 10 ? static_cast<int>(100.0 * (n - 10) / n) : 100;
        double total_ms = 0.0;
        for (double ms : untraced_ms)
            total_ms += ms;
        uint64_t emitted = 0;
        for (const Outcome &o : outcomes)
            emitted += o.emitted_comm;
        metrics.add("cells_per_s",
                    ratio(static_cast<double>(n * ncells), total_ms / 1e3),
                    "1/s");
        metrics.add("batch_ms_p50", median(untraced_ms), "ms");
        metrics.add("batch_ms_tail", tail, "ms");
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
        metrics.add("speedup_geomean", speedupGeomean(in, outcomes), "x");
        metrics.add("emitted_comm_instrs", static_cast<double>(emitted),
                    "count");
        std::cout << "batch_ms_tail is p" << tail_pct << " of " << n
                  << " timed batches; failed_frac = " << tally.failed
                  << "/" << tally.attempted << '\n';
    } else {
        std::map<std::string, std::vector<double>> traced;
        std::optional<LayerCounts> first_counts;
        double cache_hits = 0.0, cache_lookups = 0.0;
        SpanRecorder last_spans;
        size_t traced_batches = 0;
        while (more(traced_batches)) {
            tally.attempted += 2 * ncells;
            cpus.next(); // the pair shares a core, so overhead compares
            guarded([&] {
                Batch b = runBatch(in);
                untraced_ms.push_back(b.ms);
                cache_hits = static_cast<double>(b.cache.hits);
                cache_lookups =
                    static_cast<double>(b.cache.hits + b.cache.misses);
                compare(b, "batch result");

                SpanRecorder rec;
                ReplayOutput rep = replayBatch(in, rec);
                ++traced_batches;
                Batch rb;
                rb.results = std::move(rep.results);
                rb.compile = std::move(rep.compile);
                compare(rb, "traced replay result");
                if (!first_counts)
                    first_counts = rep.counts;
                else if (!(rep.counts == *first_counts))
                    tally.fail("layer counts differ between batches");
                for (const auto &[name, value] :
                     tracedValues(rec, rep.counts, tally))
                    traced[name].push_back(value);
                last_spans = std::move(rec);
            });
            if (tally.failed > 0 && traced_batches == 0)
                break;
        }
        std::map<std::string, double> values;
        for (const auto &[name, vals] : traced)
            values[name] = median(vals);
        if (first_counts)
            for (const auto &[name, value] : countValues(*first_counts))
                values[name] = value;
        values["workloads.generate_ms"] = median(generate_ms);
        values["driver.cache_hit_ratio"] = ratio(cache_hits, cache_lookups);
        const double untraced = median(untraced_ms);
        values["untraced_batch_ms"] = untraced;
        values["trace_overhead_frac"] =
            ratio(values["traced_batch_ms"] - untraced, untraced);
        for (const Unit &u : kPerLayer)
            metrics.add(u.name, values[u.name], u.unit);
        std::cout << traced_batches << " traced batches; autotune."
                  << "accept_ratio base = "
                  << (first_counts ? first_counts->at_candidates : 0)
                  << " candidates; driver.cache_hit_ratio base = "
                  << cache_lookups << " lookups\n";
        if (!args.spans.empty()) {
            std::ofstream os(args.spans);
            last_spans.writeJsonl(os);
        }
    }

    for (size_t i = 0; i < tally.problems.size() && i < 20; ++i)
        std::cerr << "gmtbench: " << tally.problems[i] << '\n';
    metrics.printTable(std::cout);
    const bool correct = tally.failed == 0 && tally.problems.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "gmtbench: " << e.what() << '\n';
        return 2;
    }
}
