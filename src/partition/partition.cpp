#include "partition/partition.hpp"

#include <sstream>

#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "support/error.hpp"

namespace gmt
{

std::vector<InstrId>
ThreadPartition::membersOf(int t) const
{
    std::vector<InstrId> members;
    for (InstrId i = 0; i < static_cast<InstrId>(assign.size()); ++i) {
        if (assign[i] == t)
            members.push_back(i);
    }
    return members;
}

ThreadPartition
singleThreadPartition(const Function &f)
{
    ThreadPartition p;
    p.num_threads = 1;
    p.assign.assign(f.numInstrs(), 0);
    return p;
}

ThreadPartition
runPartitioner(const Pdg &pdg, const EdgeProfile &profile, bool gremio,
               int num_threads, const PartitionFeedback *feedback,
               PartitionProvenance *prov)
{
    const PartitionOptions opts{num_threads, feedback};
    return gremio ? gremioPartition(pdg, profile, opts, prov)
                  : dswpPartition(pdg, profile, opts, prov);
}

std::vector<std::string>
validatePartition(const Pdg &pdg, const ThreadPartition &p,
                  bool require_pipeline)
{
    std::vector<std::string> problems;
    const Function &f = pdg.func();
    if (static_cast<int>(p.assign.size()) != f.numInstrs()) {
        problems.push_back("assignment size mismatch");
        return problems;
    }
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        if (p.assign[i] < 0 || p.assign[i] >= p.num_threads) {
            std::ostringstream os;
            os << "instr i" << i << " assigned to bad thread "
               << p.assign[i];
            problems.push_back(os.str());
        }
    }
    if (require_pipeline) {
        for (const auto &arc : pdg.arcs()) {
            if (p.assign[arc.src] > p.assign[arc.dst]) {
                std::ostringstream os;
                os << "pipeline violation: arc i" << arc.src << " (T"
                   << p.assign[arc.src] << ") -> i" << arc.dst << " (T"
                   << p.assign[arc.dst] << ")";
                problems.push_back(os.str());
            }
        }
    }
    return problems;
}

int
countCrossThreadArcs(const Pdg &pdg, const ThreadPartition &p)
{
    int n = 0;
    for (const auto &arc : pdg.arcs())
        n += (p.assign[arc.src] != p.assign[arc.dst]);
    return n;
}

bool
hasCrossThreadMemDep(const Pdg &pdg, const ThreadPartition &p)
{
    for (const auto &arc : pdg.arcs())
        if (arc.kind == DepKind::Memory &&
            p.assign[arc.src] != p.assign[arc.dst])
            return true;
    return false;
}

} // namespace gmt
