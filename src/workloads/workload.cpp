#include "workloads/workload.hpp"

#include <algorithm>
#include <filesystem>

#include "support/error.hpp"
#include "workloads/serialize.hpp"

namespace gmt
{

WorkloadRegistry::WorkloadRegistry() : cells_(allWorkloads())
{
}

WorkloadRegistry
WorkloadRegistry::empty()
{
    WorkloadRegistry r;
    r.cells_.clear();
    return r;
}

void
WorkloadRegistry::add(Workload w)
{
    auto it = std::find_if(
        cells_.begin(), cells_.end(),
        [&](const Workload &have) { return have.name == w.name; });
    if (it != cells_.end())
        *it = std::move(w);
    else
        cells_.push_back(std::move(w));
}

int
WorkloadRegistry::loadDirectory(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        fatal("--workload-dir: '", dir, "' is not a directory");
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".gmt")
            paths.push_back(entry.path().string());
    }
    if (ec)
        fatal("--workload-dir: cannot read '", dir, "': ",
              ec.message());
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths)
        add(loadWorkloadFile(path));
    return static_cast<int>(paths.size());
}

MemoryImage
workloadMemory(const Workload &w, bool ref)
{
    MemoryImage mem;
    mem.alloc(w.mem_cells);
    if (w.fill)
        w.fill(mem, ref);
    return mem;
}

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> all;
    all.push_back(makeAdpcmDec());
    all.push_back(makeAdpcmEnc());
    all.push_back(makeKs());
    all.push_back(makeMpeg2Enc());
    all.push_back(makeMesa());
    all.push_back(makeMcf());
    all.push_back(makeEquake());
    all.push_back(makeAmmp());
    all.push_back(makeTwolf());
    all.push_back(makeGromacs());
    all.push_back(makeSjeng());
    return all;
}

} // namespace gmt
