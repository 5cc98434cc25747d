// gmt-dump: serialize the built-in workload matrix to .gmt cell files.
//
//   gmt-dump --out-dir workloads/ir [--only adpcmdec,ks]
//
// Regenerates the golden corpus that test_ir_roundtrip compares the
// builders against byte-for-byte. Run it (and commit the diff) after
// intentionally changing a builder.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "workloads/serialize.hpp"
#include "workloads/workload.hpp"

namespace
{

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(stderr,
                 "usage: %s --out-dir DIR [--only W1,W2,...]\n", argv0);
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir;
    std::vector<std::string> only;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            return argv[++i];
        };
        if (arg == "--out-dir")
            out_dir = value();
        else if (arg == "--only")
            only = gmt::splitCsv(value());
        else if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        else
            usage(argv[0], 2);
    }
    if (out_dir.empty())
        usage(argv[0], 2);

    try {
        std::filesystem::create_directories(out_dir);
        int dumped = 0;
        for (const gmt::Workload &w : gmt::allWorkloads()) {
            if (!only.empty() &&
                std::find(only.begin(), only.end(), w.name) ==
                    only.end())
                continue;
            std::string path = out_dir + "/" + w.name + ".gmt";
            gmt::saveWorkloadFile(w, path);
            std::fprintf(stderr, "[gmt-dump] %s\n", path.c_str());
            ++dumped;
        }
        std::fprintf(stderr, "[gmt-dump] wrote %d cells to %s\n",
                     dumped, out_dir.c_str());
        return dumped > 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gmt-dump: %s\n", e.what());
        return 1;
    }
}
