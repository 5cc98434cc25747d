#include "partition/dswp.hpp"

#include <vector>

#include "graph/scc.hpp"
#include "support/error.hpp"

namespace gmt
{

ThreadPartition
dswpPartition(const Pdg &pdg, const EdgeProfile &profile,
              const PartitionOptions &opts, PartitionProvenance *prov)
{
    const Function &f = pdg.func();
    GMT_ASSERT(opts.num_threads >= 1);

    // SCCs of the PDG; component ids are already topologically
    // ordered, so assigning non-decreasing stages in id order keeps
    // every dependence flowing forward.
    Digraph g = pdg.asDigraph();
    SccResult sccs = computeSccs(g);

    // Profile-weighted cost per component.
    std::vector<uint64_t> comp_weight(sccs.numComponents(), 0);
    uint64_t total = 0;
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        uint64_t w = profile.blockWeight(f.instr(i).block);
        if (opts.feedback)
            w += opts.feedback->blockBoost(f.instr(i).block);
        comp_weight[sccs.component[i]] += w;
        total += w;
    }

    // Greedy pipeline fill: move to the next stage when the current
    // one reaches its share of the total weight.
    std::vector<int> stage_of_comp(sccs.numComponents(), 0);
    uint64_t target = total / opts.num_threads + 1;
    int stage = 0;
    uint64_t acc = 0;
    for (int c = 0; c < sccs.numComponents(); ++c) {
        stage_of_comp[c] = stage;
        if (prov) {
            UnitDecision d;
            d.unit = c;
            d.thread = stage;
            d.order = c;
            d.work = comp_weight[c];
            d.acc_before = acc;
            d.target = target;
            prov->units.push_back(std::move(d));
        }
        acc += comp_weight[c];
        if (acc >= target && stage + 1 < opts.num_threads) {
            ++stage;
            acc = 0;
        }
    }

    ThreadPartition p;
    p.num_threads = opts.num_threads;
    p.assign.resize(f.numInstrs());
    for (InstrId i = 0; i < f.numInstrs(); ++i)
        p.assign[i] = stage_of_comp[sccs.component[i]];

    if (prov) {
        prov->algorithm = "DSWP";
        prov->num_threads = opts.num_threads;
        prov->unit_of.assign(sccs.component.begin(),
                             sccs.component.end());
        prov->thread_of.assign(p.assign.begin(), p.assign.end());
        for (UnitDecision &d : prov->units) {
            d.num_members = 0;
            d.first_instr = -1;
        }
        for (InstrId i = 0; i < f.numInstrs(); ++i) {
            UnitDecision &d = prov->units[sccs.component[i]];
            ++d.num_members;
            if (d.first_instr < 0)
                d.first_instr = i;
        }
    }
    return p;
}

} // namespace gmt
