#ifndef GMT_GRAPH_MAX_FLOW_HPP
#define GMT_GRAPH_MAX_FLOW_HPP

/**
 * @file
 * Max-flow / min-cut over directed networks with integer capacities.
 *
 * COCO models every communication-placement decision as a min-cut
 * (paper §3.1): a cut arc is a program point where a produce/consume
 * pair is inserted. The solver is Edmonds-Karp (shortest augmenting
 * paths), the paper's own choice; every cut problem is solved cold on
 * a freshly built (or reset()) network.
 *
 * Both FlowNetwork and MaxFlow are arena-friendly: reset(n) rewinds a
 * network without releasing its arc storage, and one MaxFlow instance
 * can be re-attached to successive networks, reusing its traversal
 * scratch. COCO keeps one of each per worker and solves thousands of
 * problems without re-allocating (coco/coco.cpp).
 */

#include <cstdint>
#include <vector>

namespace gmt
{

/** Arc capacities / flow values. */
using Capacity = int64_t;

/** Effectively-infinite capacity for arcs that must not be cut. */
inline constexpr Capacity kInfCapacity = int64_t{1} << 50;

/**
 * Which minimum cut to report when several have equal cost: the one
 * closest to the source (earliest program points — better pipelining
 * for register communication, paper §5) or closest to the sink
 * (latest points — maximizes sharing between memory-dependence pairs
 * in the sequential multi-pair heuristic). Both sides are unique
 * across all maximum flows (the min-cut family forms a lattice whose
 * extreme elements are flow-independent), so the reported cut does
 * not depend on which augmenting paths the solver happened to take.
 */
enum class CutSide { Source, Sink };

/**
 * A flow network. Arcs are directed and identified by the dense id
 * returned from addArc(); reverse residual arcs are internal.
 *
 * Typical use:
 * @code
 *   FlowNetwork net(n);
 *   int a = net.addArc(u, v, weight);
 *   MaxFlow mf(net);
 *   Capacity value = mf.solve(s, t);
 *   std::vector<int> cut = mf.minCutArcs();   // ids like a
 * @endcode
 */
class FlowNetwork
{
  public:
    explicit FlowNetwork(int num_nodes);

    /**
     * Rewind to an empty network of @p num_nodes nodes, keeping all
     * previously grown storage (no deallocation): the arena-reuse
     * path for solvers that build many graphs in sequence.
     */
    void reset(int num_nodes);

    /** Add a node, returning its id. */
    int addNode();

    /**
     * Add arc u -> v with capacity @p cap.
     * @return the arc id used by minCutArcs() / removeArc().
     */
    int addArc(int u, int v, Capacity cap);

    /**
     * Mark an arc deleted (used by the multi-pair heuristic): zero
     * residual in both directions and excluded from minCutArcs().
     * The arc stays deleted across MaxFlow::reset().
     */
    void removeArc(int arc);

    int numNodes() const { return num_nodes_; }
    int numArcs() const { return static_cast<int>(arcs_.size()) / 2; }

    int arcTail(int arc) const { return tails_[2 * arc]; }
    int arcHead(int arc) const { return arcs_[2 * arc].to; }
    Capacity arcCapacity(int arc) const { return original_cap_[arc]; }

  private:
    friend class MaxFlow;

    /**
     * Restore every arc's residual to its capacity (removed arcs stay
     * at zero): the network is back in its freshly built state.
     */
    void restoreResiduals();

    struct Arc
    {
        int to;
        Capacity residual; // remaining capacity in this direction
    };

    // Arcs stored as interleaved forward/backward pairs: external arc
    // id a is internal arcs 2a (forward) and 2a+1 (backward).
    std::vector<Arc> arcs_;
    std::vector<int> tails_;
    std::vector<Capacity> original_cap_;
    std::vector<char> removed_;

    // Adjacency slots [0, num_nodes_) are live; slots beyond (left by
    // a shrinking reset) are dirty and re-cleared on reuse.
    std::vector<std::vector<int>> first_out_; // node -> internal arc ids
    int num_nodes_ = 0;
};

/**
 * Edmonds-Karp max-flow solver over a FlowNetwork. The network's
 * residual state is mutated by solve(); call reset() to restore
 * original capacities. One instance can serve many networks via
 * attach(), keeping its traversal scratch across solves.
 */
class MaxFlow
{
  public:
    explicit MaxFlow(FlowNetwork &net);

    /** Detached solver for arena reuse; attach() before solve(). */
    MaxFlow();

    /** Rebind to another network. */
    void attach(FlowNetwork &net);

    /**
     * Compute the max flow from @p s to @p t, augmenting from the
     * network's current residual state (freshly built, or reset()).
     */
    Capacity solve(int s, int t);

    /**
     * Arc ids of a minimum s-t cut (callable after solve). With
     * CutSide::Source: arcs leaving the set reachable from s in the
     * residual graph; with CutSide::Sink: arcs entering the set that
     * reaches t in the residual graph.
     */
    std::vector<int> minCutArcs(CutSide side = CutSide::Source) const;

    /** True if the last solve found a cut of finite value. */
    bool finite() const { return last_flow_ < kInfCapacity / 2; }

    /** Restore all residual capacities to the original capacities
     *  (removed arcs stay at zero). */
    void reset();

  private:
    /** Nodes reachable from s in the residual graph. */
    std::vector<bool> residualReachable(int s) const;

    /** Nodes that can reach t in the residual graph. */
    std::vector<bool> residualReaching(int t) const;

    FlowNetwork *net_;
    int last_s_ = -1;
    int last_t_ = -1;
    Capacity last_flow_ = 0;

    // BFS predecessor arcs, reused across solves (and, via attach(),
    // across networks).
    std::vector<int> pred_arc_;
};

} // namespace gmt

#endif // GMT_GRAPH_MAX_FLOW_HPP
