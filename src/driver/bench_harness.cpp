#include "driver/bench_harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "support/cli.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [--jobs N] [--serial] [--coco-jobs N] "
        "[--no-cache] [--stats FILE] [--only W1,W2,...] [--quiet] "
        "[--no-mtverify] [--trace FILE] [--workload-dir DIR] "
        "[--provenance FILE]\n",
        argv0);
    std::exit(exit_code);
}

} // namespace

BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opts;
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
        auto jobCount = [&]() {
            return static_cast<int>(
                intFlag(argv[0], arg, value(), 0, kMaxJobs, usage));
        };
        if (arg == "--jobs")
            opts.jobs = jobCount();
        else if (arg == "--serial")
            opts.jobs = 1;
        else if (arg == "--coco-jobs")
            opts.coco_jobs = jobCount();
        else if (arg == "--no-cache")
            opts.use_cache = false;
        else if (arg == "--stats")
            opts.stats_path = value();
        else if (arg == "--only")
            opts.only = splitCsv(value());
        else if (arg == "--quiet")
            opts.quiet = true;
        else if (arg == "--no-mtverify")
            opts.verify_mt = false;
        else if (arg == "--trace")
            opts.trace_path = value();
        else if (arg == "--workload-dir")
            opts.workload_dir = value();
        else if (arg == "--provenance")
            opts.provenance_path = value();
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

BenchHarness::BenchHarness(int argc, char **argv)
    : BenchHarness(parseBenchOptions(argc, argv))
{
}

BenchHarness::BenchHarness(const BenchOptions &opts) : opts_(opts)
{
    if (!opts_.stats_path.empty()) {
        try {
            stats_ = std::make_unique<StatsSink>(opts_.stats_path);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            std::exit(2);
        }
    }
    if (!opts_.trace_path.empty())
        trace_ = std::make_unique<TraceCollector>();
    ExperimentOptions eo;
    eo.jobs = opts_.jobs;
    eo.use_cache = opts_.use_cache;
    eo.stats = stats_.get();
    eo.trace = trace_.get();
    runner_ = std::make_unique<ExperimentRunner>(eo);
}

std::vector<Workload>
BenchHarness::workloads() const
{
    WorkloadRegistry registry;
    if (!opts_.workload_dir.empty()) {
        try {
            registry.loadDirectory(opts_.workload_dir);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            std::exit(2);
        }
    }
    std::vector<Workload> all = registry.take();
    if (opts_.only.empty())
        return all;
    for (const auto &name : opts_.only) {
        bool known =
            std::any_of(all.begin(), all.end(), [&](const Workload &w) {
                return w.name == name;
            });
        if (!known) {
            std::fprintf(stderr,
                         "--only: unknown workload '%s'; known names:",
                         name.c_str());
            for (const auto &w : all)
                std::fprintf(stderr, " %s", w.name.c_str());
            std::fprintf(stderr, "\n");
            std::exit(2);
        }
    }
    std::vector<Workload> picked;
    for (auto &w : all) {
        if (std::find(opts_.only.begin(), opts_.only.end(), w.name) !=
            opts_.only.end())
            picked.push_back(std::move(w));
    }
    return picked;
}

std::vector<PipelineResult>
BenchHarness::runAll(const std::vector<ExperimentCell> &cells)
{
    std::vector<ExperimentCell> batch = cells;
    for (ExperimentCell &cell : batch) {
        if (!opts_.verify_mt)
            cell.opts.verify_mt = false;
        if (opts_.coco_jobs > 0)
            cell.opts.coco_jobs = opts_.coco_jobs;
        if (!opts_.provenance_path.empty())
            cell.opts.record_provenance = true;
    }
    auto results = runner_->runAll(batch);
    if (!opts_.quiet) {
        const ExperimentSummary &s = runner_->summary();
        uint64_t lookups = s.cache.hits + s.cache.misses;
        std::fprintf(
            stderr,
            "[bench] %d cells, %d jobs, %.0f ms wall, cache %llu/%llu "
            "hits (%.0f%%)\n",
            s.cells, s.jobs, s.wall_ms,
            static_cast<unsigned long long>(s.cache.hits),
            static_cast<unsigned long long>(lookups),
            lookups ? 100.0 * static_cast<double>(s.cache.hits) /
                          static_cast<double>(lookups)
                    : 0.0);
    }
    if (trace_) {
        trace_->writeFile(opts_.trace_path);
        if (!opts_.quiet)
            std::fprintf(stderr, "[bench] trace: %s (%zu events)\n",
                         opts_.trace_path.c_str(),
                         trace_->numEvents());
    }
    if (!opts_.provenance_path.empty()) {
        std::ofstream os(opts_.provenance_path);
        if (!os)
            throw FatalError("cannot write provenance file: " +
                             opts_.provenance_path);
        os << "{\"schema\":1,\"type\":\"provenance-batch\",\"cells\":[";
        size_t written = 0;
        for (const auto &prov : runner_->provenances()) {
            if (!prov)
                continue;
            if (written++)
                os << ",";
            os << prov->canonical_json;
        }
        os << "]}\n";
        if (!opts_.quiet)
            std::fprintf(stderr, "[bench] provenance: %s (%zu cells)\n",
                         opts_.provenance_path.c_str(), written);
    }
    return results;
}

} // namespace gmt
