#include "pdg/pdg.hpp"

#include "support/error.hpp"

namespace gmt
{

Pdg::Pdg(const Function &f) : func_(&f)
{
    from_.resize(f.numInstrs());
    to_.resize(f.numInstrs());
}

void
Pdg::addArc(PdgArc arc)
{
    GMT_ASSERT(arc.src != kNoInstr && arc.dst != kNoInstr);
    // A duplicate sits on both endpoint lists: search the shorter
    // (a branch's control arcs or a hot def's uses make one side long).
    const auto &out = from_[arc.src];
    const auto &in = to_[arc.dst];
    for (int a : out.size() <= in.size() ? out : in) {
        const PdgArc &e = arcs_[a];
        if (e.src == arc.src && e.dst == arc.dst && e.kind == arc.kind &&
            e.reg == arc.reg)
            return; // duplicate
    }
    int id = static_cast<int>(arcs_.size());
    arcs_.push_back(arc);
    from_[arc.src].push_back(id);
    to_[arc.dst].push_back(id);
}

std::vector<const PdgArc *>
Pdg::memArcs() const
{
    std::vector<const PdgArc *> mem;
    for (const PdgArc &arc : arcs_)
        if (arc.kind == DepKind::Memory)
            mem.push_back(&arc);
    return mem;
}

Digraph
Pdg::asDigraph() const
{
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(arcs_.size());
    for (const auto &arc : arcs_)
        edges.emplace_back(arc.src, arc.dst);
    return Digraph(func_->numInstrs(), edges);
}

} // namespace gmt
