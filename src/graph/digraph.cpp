#include "graph/digraph.hpp"

#include <algorithm>
#include <deque>

#include "support/error.hpp"

namespace gmt
{

Digraph::Digraph(int n, const std::vector<std::pair<NodeId, NodeId>> &edges)
    : succs_(n), preds_(n)
{
    // Edge indices grouped by source, ascending within a group.
    std::vector<int> start(n + 1, 0);
    for (auto [u, v] : edges) {
        GMT_ASSERT(u >= 0 && u < n && v >= 0 && v < n);
        ++start[u + 1];
    }
    for (NodeId u = 0; u < n; ++u)
        start[u + 1] += start[u];
    std::vector<int> by_src(edges.size());
    {
        std::vector<int> fill(start.begin(), start.end() - 1);
        for (size_t k = 0; k < edges.size(); ++k)
            by_src[fill[edges[k].first]++] = static_cast<int>(k);
    }
    // An edge is new unless an earlier one of its group has its target.
    std::vector<NodeId> stamp(n, -1);
    std::vector<char> first(edges.size(), 0);
    std::vector<int> in_deg(n, 0);
    for (NodeId u = 0; u < n; ++u) {
        int out_deg = 0;
        for (int j = start[u]; j < start[u + 1]; ++j) {
            NodeId v = edges[by_src[j]].second;
            if (stamp[v] != u) {
                stamp[v] = u;
                first[by_src[j]] = 1;
                ++out_deg;
                ++in_deg[v];
            }
        }
        succs_[u].reserve(out_deg);
    }
    for (NodeId v = 0; v < n; ++v)
        preds_[v].reserve(in_deg[v]);
    for (size_t k = 0; k < edges.size(); ++k) {
        if (!first[k])
            continue;
        auto [u, v] = edges[k];
        succs_[u].push_back(v);
        preds_[v].push_back(u);
        ++numEdges_;
    }
}

NodeId
Digraph::addNode()
{
    succs_.emplace_back();
    preds_.emplace_back();
    return static_cast<NodeId>(succs_.size() - 1);
}

void
Digraph::addEdge(NodeId u, NodeId v)
{
    GMT_ASSERT(u >= 0 && u < numNodes() && v >= 0 && v < numNodes());
    if (hasEdge(u, v))
        return;
    succs_[u].push_back(v);
    preds_[v].push_back(u);
    ++numEdges_;
}

bool
Digraph::hasEdge(NodeId u, NodeId v) const
{
    // The edge is on both adjacency lists; search the shorter.
    const auto &s = succs_[u];
    const auto &p = preds_[v];
    if (s.size() <= p.size())
        return std::find(s.begin(), s.end(), v) != s.end();
    return std::find(p.begin(), p.end(), u) != p.end();
}

std::vector<NodeId>
Digraph::topoSort() const
{
    std::vector<int> indeg(numNodes(), 0);
    for (NodeId u = 0; u < numNodes(); ++u) {
        for (NodeId v : succs_[u])
            ++indeg[v];
    }
    std::deque<NodeId> ready;
    for (NodeId u = 0; u < numNodes(); ++u) {
        if (indeg[u] == 0)
            ready.push_back(u);
    }
    std::vector<NodeId> order;
    order.reserve(numNodes());
    while (!ready.empty()) {
        NodeId u = ready.front();
        ready.pop_front();
        order.push_back(u);
        for (NodeId v : succs_[u]) {
            if (--indeg[v] == 0)
                ready.push_back(v);
        }
    }
    if (static_cast<int>(order.size()) != numNodes())
        return {}; // cyclic
    return order;
}

bool
Digraph::isAcyclic() const
{
    return numNodes() == 0 || !topoSort().empty();
}

std::vector<bool>
Digraph::reachableFrom(NodeId start) const
{
    std::vector<bool> seen(numNodes(), false);
    std::vector<NodeId> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
        NodeId u = stack.back();
        stack.pop_back();
        for (NodeId v : succs_[u]) {
            if (!seen[v]) {
                seen[v] = true;
                stack.push_back(v);
            }
        }
    }
    return seen;
}

} // namespace gmt
