#ifndef GMT_GRAPH_DIGRAPH_HPP
#define GMT_GRAPH_DIGRAPH_HPP

/**
 * @file
 * A lightweight directed graph over dense integer node ids. The PDG, the
 * thread graph, and the condensations used by the partitioners are all
 * instances of this class with side tables for their payloads.
 */

#include <cstdint>
#include <utility>
#include <vector>

namespace gmt
{

/** Node handle type for Digraph. */
using NodeId = int32_t;

/** Directed graph with dense NodeId handles and adjacency lists. */
class Digraph
{
  public:
    Digraph() = default;

    /** Create a graph with @p n initial nodes. */
    explicit Digraph(int n) : succs_(n), preds_(n) {}

    /**
     * Create a graph with @p n nodes and @p edges. Parallel edges
     * collapse and adjacency lists keep first-occurrence order, as if
     * each edge went through addEdge in turn, but duplicates are found
     * with one stamp per node instead of adjacency scans.
     */
    Digraph(int n, const std::vector<std::pair<NodeId, NodeId>> &edges);

    /** Add a node and return its id (ids are 0..numNodes()-1). */
    NodeId addNode();

    /**
     * Add the edge u -> v. Parallel edges are collapsed: adding an
     * existing edge is a no-op (dependence graphs are relations).
     */
    void addEdge(NodeId u, NodeId v);

    bool hasEdge(NodeId u, NodeId v) const;

    int numNodes() const { return static_cast<int>(succs_.size()); }
    int numEdges() const { return numEdges_; }

    const std::vector<NodeId> &succs(NodeId u) const { return succs_[u]; }
    const std::vector<NodeId> &preds(NodeId u) const { return preds_[u]; }

    /**
     * Topological order of a DAG (Kahn's algorithm).
     * @return node ids in topological order; empty if the graph is
     *         cyclic (callers use this as a cycle test as well).
     */
    std::vector<NodeId> topoSort() const;

    /** True if the graph contains no directed cycle. */
    bool isAcyclic() const;

    /** Nodes reachable from @p start (including it). */
    std::vector<bool> reachableFrom(NodeId start) const;

  private:
    std::vector<std::vector<NodeId>> succs_;
    std::vector<std::vector<NodeId>> preds_;
    int numEdges_ = 0;
};

} // namespace gmt

#endif // GMT_GRAPH_DIGRAPH_HPP
