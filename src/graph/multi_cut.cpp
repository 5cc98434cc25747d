#include "graph/multi_cut.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gmt
{

MultiCutResult
multiPairMinCut(FlowNetwork &net,
                const std::vector<std::pair<int, int>> &pairs,
                CutSide side, MaxFlow *arena)
{
    MultiCutResult result;
    MaxFlow local;
    MaxFlow &mf = arena ? *arena : local;
    std::vector<bool> cut_already(net.numArcs(), false);
    for (auto [s, t] : pairs) {
        GMT_ASSERT(s != t, "degenerate memory dependence pair");
        mf.attach(net);
        mf.reset();
        mf.solve(s, t);
        if (!mf.finite()) {
            result.finite = false;
            continue;
        }
        // Sink-side cuts sit as late as possible, which maximizes how
        // often later pairs can reuse arcs already cut.
        for (int arc : mf.minCutArcs(side)) {
            if (!cut_already[arc]) {
                cut_already[arc] = true;
                result.arcs.push_back(arc);
                result.cost += net.arcCapacity(arc);
            }
            // Removing the arc lets this cut help later pairs.
            net.removeArc(arc);
        }
    }
    std::sort(result.arcs.begin(), result.arcs.end());
    return result;
}

MultiCutResult
superPairMinCut(FlowNetwork &net,
                const std::vector<std::pair<int, int>> &pairs,
                MaxFlow *arena)
{
    MultiCutResult result;
    if (pairs.empty())
        return result;

    int super_s = net.addNode();
    int super_t = net.addNode();
    for (auto [s, t] : pairs) {
        net.addArc(super_s, s, kInfCapacity);
        net.addArc(t, super_t, kInfCapacity);
    }

    MaxFlow local;
    MaxFlow &mf = arena ? *arena : local;
    mf.attach(net);
    mf.reset();
    mf.solve(super_s, super_t);
    result.finite = mf.finite();
    for (int arc : mf.minCutArcs()) {
        result.arcs.push_back(arc);
        result.cost += net.arcCapacity(arc);
    }
    return result;
}

} // namespace gmt
