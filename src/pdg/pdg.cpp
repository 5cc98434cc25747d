#include "pdg/pdg.hpp"

#include "support/error.hpp"

namespace gmt
{

namespace
{

/** Counting sort of arc ids by one endpoint into offset arrays; ids
 *  ascend within each node's list. */
template <typename Endpoint>
void
indexBy(const std::vector<PdgArc> &arcs, int n, Endpoint end,
        std::vector<int> &off, std::vector<int> &ids)
{
    off.assign(n + 1, 0);
    for (const PdgArc &a : arcs)
        ++off[end(a) + 1];
    for (int i = 0; i < n; ++i)
        off[i + 1] += off[i];
    ids.resize(arcs.size());
    std::vector<int> next(off.begin(), off.end() - 1);
    for (int a = 0; a < static_cast<int>(arcs.size()); ++a)
        ids[next[end(arcs[a])]++] = a;
}

} // namespace

Pdg::Pdg(const Function &f, std::vector<PdgArc> arcs)
    : func_(&f), arcs_(std::move(arcs))
{
    index();
}

void
Pdg::index()
{
    const int n = func_->numInstrs();
    indexBy(arcs_, n, [](const PdgArc &a) { return a.src; }, from_off_,
            from_);
    indexBy(arcs_, n, [](const PdgArc &a) { return a.dst; }, to_off_,
            to_);
}

void
Pdg::addArc(PdgArc arc)
{
    GMT_ASSERT(arc.src != kNoInstr && arc.dst != kNoInstr);
    for (int a : arcsFrom(arc.src)) {
        const PdgArc &e = arcs_[a];
        if (e.dst == arc.dst && e.kind == arc.kind && e.reg == arc.reg)
            return; // duplicate
    }
    arcs_.push_back(arc);
    index();
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
