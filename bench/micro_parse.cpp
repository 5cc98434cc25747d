/**
 * @file
 * Microbenchmark + correctness gate for the textual IR front end.
 * Over the golden `.gmt` corpus (default workloads/ir) it:
 *
 *  1. asserts the print/parse fixpoint for every cell — the dumped
 *     text reloads to a workload whose dump is byte-identical and
 *     whose digest is unchanged (the contract the corpus, the
 *     artifact cache keys, and the fuzzer repros all rest on);
 *  2. times cell parsing (workloadFromText, including IR
 *     verification) and printing (workloadToText) over repeated
 *     passes, and writes throughput to BENCH_parse.json so the parser
 *     perf trajectory is tracked per commit.
 *
 * Usage: micro_parse [--dir DIR] [--reps N] [--out FILE]
 *        (defaults: workloads/ir, 20 reps, ./BENCH_parse.json)
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/stats.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "workloads/serialize.hpp"

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

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(stderr,
                 "usage: %s [--dir DIR] [--reps N] [--out FILE]\n",
                 argv0);
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "workloads/ir";
    std::string out_path = "BENCH_parse.json";
    int reps = 20;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            dir = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = static_cast<int>(intFlag(argv[0], "--reps", argv[++i],
                                            1, INT_MAX, usage));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            usage(argv[0], 2);
        }
    }

    // Slurp the corpus once; parsing, not IO, is what is measured.
    std::vector<std::string> texts;
    std::vector<std::string> names;
    uint64_t corpus_bytes = 0;
    {
        namespace fs = std::filesystem;
        std::vector<fs::path> paths;
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.is_regular_file() &&
                entry.path().extension() == ".gmt")
                paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end());
        for (const fs::path &p : paths) {
            std::ifstream in(p);
            std::ostringstream ss;
            ss << in.rdbuf();
            texts.push_back(ss.str());
            names.push_back(p.filename().string());
            corpus_bytes += texts.back().size();
        }
    }
    if (texts.empty()) {
        std::fprintf(stderr, "micro_parse: no .gmt cells in %s\n",
                     dir.c_str());
        return 2;
    }

    // Correctness gate: parse -> print is a fixpoint, digest stable.
    bool fixpoint = true;
    for (size_t i = 0; i < texts.size(); ++i) {
        try {
            Workload w = workloadFromText(texts[i], names[i]);
            std::string dumped = workloadToText(w);
            Workload again = workloadFromText(dumped, names[i]);
            if (dumped != workloadToText(again) ||
                w.digest != again.digest) {
                fixpoint = false;
                std::fprintf(stderr,
                             "micro_parse: %s is not a fixpoint\n",
                             names[i].c_str());
            }
        } catch (const FatalError &e) {
            fixpoint = false;
            std::fprintf(stderr, "micro_parse: %s: %s\n",
                         names[i].c_str(), e.what());
        }
    }

    // Timing passes. workloadFromText includes IR verification, so
    // "parse" here is the full load path a --workload-dir user pays.
    std::vector<Workload> loaded;
    loaded.reserve(texts.size());
    for (size_t i = 0; i < texts.size(); ++i)
        loaded.push_back(workloadFromText(texts[i], names[i]));

    double parse_ms = 0.0, print_ms = 0.0;
    uint64_t parsed_instrs = 0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < texts.size(); ++i) {
            Workload w = workloadFromText(texts[i], names[i]);
            parsed_instrs += w.func.numInstrs();
        }
        parse_ms += msSince(t0);

        t0 = Clock::now();
        for (const Workload &w : loaded) {
            std::string text = workloadToText(w);
            // Keep the optimizer honest.
            if (text.empty())
                return 3;
        }
        print_ms += msSince(t0);
    }

    double parse_mb_s =
        parse_ms > 0.0 ? (static_cast<double>(corpus_bytes) * reps) /
                             (parse_ms * 1e3)
                       : 0.0;
    JsonObject o;
    o.str("bench", "parse");
    o.boolean("fixpoint", fixpoint);
    o.num("cells", static_cast<int64_t>(texts.size()));
    o.num("corpus_bytes", corpus_bytes);
    o.num("reps", static_cast<int64_t>(reps));
    o.num("parsed_instrs", parsed_instrs);
    o.num("parse_wall_ms", parse_ms);
    o.num("print_wall_ms", print_ms);
    o.num("parse_mb_per_s", parse_mb_s);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_parse: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return fixpoint ? 0 : 1;
}
