#include "graph/max_flow.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "support/error.hpp"

namespace gmt
{

FlowNetwork::FlowNetwork(int num_nodes)
{
    reset(num_nodes);
}

void
FlowNetwork::reset(int num_nodes)
{
    GMT_ASSERT(num_nodes >= 0);
    // Clear exactly the slots the new epoch starts with; stale slots
    // beyond num_nodes are re-cleared by addNode() on reuse. Inner
    // vectors keep their capacity — that is the arena win.
    int have = static_cast<int>(first_out_.size());
    for (int i = 0; i < num_nodes && i < have; ++i)
        first_out_[i].clear();
    if (have < num_nodes)
        first_out_.resize(num_nodes);
    num_nodes_ = num_nodes;
    arcs_.clear();
    tails_.clear();
    original_cap_.clear();
    removed_.clear();
}

int
FlowNetwork::addNode()
{
    if (num_nodes_ < static_cast<int>(first_out_.size()))
        first_out_[num_nodes_].clear(); // stale slot from a reset
    else
        first_out_.emplace_back();
    return num_nodes_++;
}

int
FlowNetwork::addArc(int u, int v, Capacity cap)
{
    GMT_ASSERT(u >= 0 && u < numNodes() && v >= 0 && v < numNodes());
    GMT_ASSERT(cap >= 0);
    int fwd = static_cast<int>(arcs_.size());
    arcs_.push_back({v, cap});
    arcs_.push_back({u, 0});
    tails_.push_back(u);
    tails_.push_back(v);
    original_cap_.push_back(cap);
    removed_.push_back(0);
    first_out_[u].push_back(fwd);
    first_out_[v].push_back(fwd + 1);
    return fwd / 2;
}

void
FlowNetwork::removeArc(int arc)
{
    GMT_ASSERT(arc >= 0 && arc < numArcs());
    // minCutArcs() must still report arcs whose original capacity is
    // zero (a zero profile weight does not make a program point
    // impossible, only free to cut), so removal is a separate flag
    // rather than a zero capacity.
    removed_[arc] = 1;
    arcs_[2 * arc].residual = 0;
    arcs_[2 * arc + 1].residual = 0;
}

void
FlowNetwork::restoreResiduals()
{
    for (int a = 0; a < numArcs(); ++a) {
        arcs_[2 * a].residual = removed_[a] ? 0 : original_cap_[a];
        arcs_[2 * a + 1].residual = 0;
    }
}

MaxFlow::MaxFlow(FlowNetwork &net) : net_(&net) {}

MaxFlow::MaxFlow() : net_(nullptr) {}

void
MaxFlow::attach(FlowNetwork &net)
{
    net_ = &net;
    last_s_ = -1;
    last_t_ = -1;
    last_flow_ = 0;
}

void
MaxFlow::reset()
{
    net_->restoreResiduals();
    last_s_ = -1;
    last_flow_ = 0;
}

Capacity
MaxFlow::solve(int s, int t)
{
    GMT_ASSERT(net_, "solve() on a detached MaxFlow");
    GMT_ASSERT(s != t);
    last_s_ = s;
    last_t_ = t;
    auto &arcs = net_->arcs_;
    Capacity total = 0;
    pred_arc_.assign(net_->numNodes(), -1);
    while (true) {
        // BFS for a shortest augmenting path.
        std::fill(pred_arc_.begin(), pred_arc_.end(), -1);
        pred_arc_[s] = -2;
        std::deque<int> queue{s};
        while (!queue.empty() && pred_arc_[t] == -1) {
            int u = queue.front();
            queue.pop_front();
            for (int a : net_->first_out_[u]) {
                int v = arcs[a].to;
                if (pred_arc_[v] == -1 && arcs[a].residual > 0) {
                    pred_arc_[v] = a;
                    queue.push_back(v);
                }
            }
        }
        if (pred_arc_[t] == -1)
            break;
        // Find the bottleneck and augment.
        Capacity bottleneck = std::numeric_limits<Capacity>::max();
        for (int v = t; v != s;) {
            int a = pred_arc_[v];
            bottleneck = std::min(bottleneck, arcs[a].residual);
            v = arcs[a ^ 1].to;
        }
        for (int v = t; v != s;) {
            int a = pred_arc_[v];
            arcs[a].residual -= bottleneck;
            arcs[a ^ 1].residual += bottleneck;
            v = arcs[a ^ 1].to;
        }
        total += bottleneck;
    }
    last_flow_ = total;
    return total;
}

std::vector<bool>
MaxFlow::residualReachable(int s) const
{
    std::vector<bool> seen(net_->numNodes(), false);
    std::vector<int> stack{s};
    seen[s] = true;
    while (!stack.empty()) {
        int u = stack.back();
        stack.pop_back();
        for (int a : net_->first_out_[u]) {
            int v = net_->arcs_[a].to;
            if (!seen[v] && net_->arcs_[a].residual > 0) {
                seen[v] = true;
                stack.push_back(v);
            }
        }
    }
    return seen;
}

std::vector<bool>
MaxFlow::residualReaching(int t) const
{
    // Reverse traversal: x can step to y (against an arc y -> x) iff
    // the arc y -> x has residual capacity; for internal arc b = x->y,
    // its partner b^1 is y -> x.
    std::vector<bool> seen(net_->numNodes(), false);
    std::vector<int> stack{t};
    seen[t] = true;
    while (!stack.empty()) {
        int x = stack.back();
        stack.pop_back();
        for (int b : net_->first_out_[x]) {
            int y = net_->arcs_[b].to;
            if (!seen[y] && net_->arcs_[b ^ 1].residual > 0) {
                seen[y] = true;
                stack.push_back(y);
            }
        }
    }
    return seen;
}

std::vector<int>
MaxFlow::minCutArcs(CutSide side) const
{
    GMT_ASSERT(last_s_ >= 0, "solve() must run before minCutArcs()");
    // Source side: nodes reachable from s in the residual graph.
    // Sink side: complement of the nodes reaching t — both are valid
    // minimum cuts; they differ only in which of several equal-cost
    // cuts is reported.
    std::vector<bool> source_side;
    if (side == CutSide::Source) {
        source_side = residualReachable(last_s_);
    } else {
        source_side = residualReaching(last_t_);
        source_side.flip();
    }
    std::vector<int> cut;
    for (int a = 0; a < net_->numArcs(); ++a) {
        if (net_->removed_[a])
            continue; // deleted by removeArc
        if (source_side[net_->arcTail(a)] &&
            !source_side[net_->arcHead(a)])
            cut.push_back(a);
    }
    return cut;
}

} // namespace gmt
