#include "graph/max_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.hpp"

namespace gmt
{
namespace
{

struct ArcSpec
{
    int u, v;
    Capacity cap;
};

FlowNetwork
makeNetwork(int n, const std::vector<ArcSpec> &arcs)
{
    FlowNetwork net(n);
    for (const auto &a : arcs)
        net.addArc(a.u, a.v, a.cap);
    return net;
}

// Brute-force min cut: enumerate every node bipartition with s on one
// side and t on the other; cost = capacity crossing S -> T.
Capacity
bruteMinCut(int n, const std::vector<ArcSpec> &arcs, int s, int t)
{
    Capacity best = kInfCapacity;
    for (int mask = 0; mask < (1 << n); ++mask) {
        if (!(mask & (1 << s)) || (mask & (1 << t)))
            continue;
        Capacity cost = 0;
        for (const auto &a : arcs) {
            if ((mask & (1 << a.u)) && !(mask & (1 << a.v)))
                cost += a.cap;
        }
        best = std::min(best, cost);
    }
    return best;
}

TEST(MaxFlow, SingleArc)
{
    auto net = makeNetwork(2, {{0, 1, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 5);
    auto cut = mf.minCutArcs();
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(net.arcTail(cut[0]), 0);
    EXPECT_EQ(net.arcHead(cut[0]), 1);
}

TEST(MaxFlow, Disconnected)
{
    auto net = makeNetwork(3, {{0, 1, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 2), 0);
    EXPECT_TRUE(mf.minCutArcs().empty());
}

TEST(MaxFlow, ClassicDiamond)
{
    // s=0, t=3; two paths of caps (3,2) and (2,3) plus cross arc.
    auto net = makeNetwork(4, {{0, 1, 3},
                               {0, 2, 2},
                               {1, 3, 2},
                               {2, 3, 3},
                               {1, 2, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 3), 5);
}

TEST(MaxFlow, InfiniteArcsAvoidedInCut)
{
    // s -> a (inf), a -> b (7), b -> t (inf): the only finite cut is
    // the middle arc.
    auto net = makeNetwork(4, {{0, 1, kInfCapacity},
                               {1, 2, 7},
                               {2, 3, kInfCapacity}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 3), 7);
    EXPECT_TRUE(mf.finite());
    auto cut = mf.minCutArcs();
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(net.arcCapacity(cut[0]), 7);
}

TEST(MaxFlow, NoFiniteCut)
{
    auto net = makeNetwork(2, {{0, 1, kInfCapacity}});
    MaxFlow mf(net);
    mf.solve(0, 1);
    EXPECT_FALSE(mf.finite());
}

TEST(MaxFlow, ResetAllowsResolve)
{
    auto net = makeNetwork(2, {{0, 1, 9}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 9);
    mf.reset();
    EXPECT_EQ(mf.solve(0, 1), 9);
}

TEST(MaxFlow, RemoveArcZeroesCapacity)
{
    auto net = makeNetwork(2, {{0, 1, 9}});
    net.removeArc(0);
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 0);
}

// Both reported cuts must (a) separate s from t when their arcs are
// removed and (b) have total capacity equal to the max flow
// (max-flow/min-cut duality), which must equal the brute-force
// minimum.
TEST(MaxFlow, PropertyCutMatchesBruteForce)
{
    Rng rng(777);
    for (int trial = 0; trial < 80; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBelow(7));
        std::vector<ArcSpec> arcs;
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.nextBool(0.4)) {
                    arcs.push_back(
                        {u, v, static_cast<Capacity>(rng.nextBelow(20))});
                }
            }
        }
        int s = 0, t = n - 1;
        auto net = makeNetwork(n, arcs);
        MaxFlow mf(net);
        Capacity flow = mf.solve(s, t);
        Capacity brute = bruteMinCut(n, arcs, s, t);
        ASSERT_EQ(flow, brute) << "trial " << trial;

        for (CutSide side : {CutSide::Source, CutSide::Sink}) {
            const char *name =
                side == CutSide::Source ? "source" : "sink";
            auto cut = mf.minCutArcs(side);
            Capacity cut_cost = 0;
            for (int a : cut)
                cut_cost += net.arcCapacity(a);
            ASSERT_EQ(cut_cost, flow)
                << name << "-side duality violated, trial " << trial;

            // Removing the cut arcs must disconnect t from s.
            FlowNetwork pruned(n);
            for (size_t i = 0; i < arcs.size(); ++i) {
                if (std::find(cut.begin(), cut.end(),
                              static_cast<int>(i)) == cut.end()) {
                    pruned.addArc(arcs[i].u, arcs[i].v, arcs[i].cap);
                }
            }
            MaxFlow check(pruned);
            ASSERT_EQ(check.solve(s, t), 0)
                << name << "-side cut does not separate, trial "
                << trial;
        }
    }
}

} // namespace
} // namespace gmt
