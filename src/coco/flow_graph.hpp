#ifndef GMT_COCO_FLOW_GRAPH_HPP
#define GMT_COCO_FLOW_GRAPH_HPP

/**
 * @file
 * Construction of the min-cut flow graphs G_f (paper §3.1).
 *
 * Nodes are instructions (plus block-entry nodes and, for registers,
 * the special S/T nodes); arcs are the control-flow steps between
 * adjacent program points, so *cutting an arc is placing a
 * produce/consume pair at a program point*. Costs are profile
 * weights, plus §3.1.2's control-flow penalties for points whose
 * execution condition would force new branches into the target
 * thread, plus infinity where a placement would violate Safety
 * (Property 3) or source-thread relevance (Property 2).
 *
 * The builders write into a caller-owned FlowGraph and scratch
 * buffers so that a solver working through thousands of problems
 * (coco/coco.cpp) reuses one arena per worker instead of allocating
 * per problem.
 */

#include <span>
#include <utility>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "graph/max_flow.hpp"
#include "ir/function.hpp"
#include "partition/partition.hpp"

namespace gmt
{

/** A built flow graph plus the arc -> program-point mapping. */
struct FlowGraph
{
    FlowNetwork net{0};

    /** Register case: super source/sink. */
    int source = -1;
    int sink = -1;

    /** Memory case: one (source, sink) node pair per dependence arc. */
    std::vector<std::pair<int, int>> pairs;

    /** arc id -> the program point cutting it selects; special arcs
     *  map to {kNoBlock, -1}. */
    std::vector<ProgramPoint> arc_points;

    /** True if there was nothing to build (no defs or no uses). */
    bool trivial = false;

    /** Rewind for reuse, keeping the network's arc storage. */
    void
    clear()
    {
        net.reset(0);
        source = -1;
        sink = -1;
        pairs.clear();
        arc_points.clear();
        trivial = false;
    }
};

/**
 * Per-function facts the builders read, built once per cocoOptimize
 * call: each block's transitive control dependences (the §3.1.2
 * penalty terms read them for every arc cost) and, per register, the
 * blocks that define or use it.
 */
class CutGraphIndex
{
  public:
    CutGraphIndex(const Function &f, const ControlDependence &cd);

    /** ControlDependence::transitiveDeps(@p b). */
    const std::vector<BlockId> &
    transDeps(BlockId b) const
    {
        return trans_deps_[b];
    }

    /** Blocks holding a def or use of @p r, ascending. */
    std::span<const BlockId>
    blocksOf(Reg r) const
    {
        return {blocks_.data() + reg_off_[r],
                blocks_.data() + reg_off_[r + 1]};
    }

  private:
    std::vector<std::vector<BlockId>> trans_deps_;
    /** blocksOf(r) is blocks_[reg_off_[r] .. reg_off_[r + 1]). */
    std::vector<int> reg_off_;
    std::vector<BlockId> blocks_;
};

/** Inputs shared by both builders. */
struct FlowGraphInputs
{
    const Function *f;
    const ControlDependence *cd;
    const EdgeProfile *profile;
    const ThreadPartition *partition;

    /** Per-thread relevant-branch sets (current Algorithm 2 state). */
    const std::vector<BitVector> *relevant;

    /** The CutGraphIndex of *f (required). */
    const CutGraphIndex *index;

    /** Apply §3.1.2 control-flow penalties? */
    bool penalties = true;
};

/**
 * Reusable working memory for the builders. One instance per worker;
 * the vectors keep their capacity across problems. Per-point arrays
 * are flat: block k's points (positions 0..size) start at first[k].
 */
struct FlowGraphScratch
{
    /** Register graph: the blocks it walks, ascending, and each
     *  block's index among them (-1 if not walked). */
    std::vector<BlockId> blocks;
    std::vector<int> slot;

    std::vector<int> first;
    std::vector<char> point_live;
    std::vector<char> point_safe;
    std::vector<int> entry_node;
    std::vector<int> instr_node;
};

/**
 * Build G_f for register @p r from thread @p ts to thread @p tt
 * (§3.1.1 + §3.1.2) into @p out. @p safety is the SafetyAnalysis of
 * @p ts; @p live the ThreadLiveness of @p tt (with its current
 * relevant branches). Walks only the blocks r is live out of or that
 * define or use r: every other block has no live point of r, hence no
 * node and no arc.
 */
void buildRegisterFlowGraph(const FlowGraphInputs &in,
                            const SafetyAnalysis &safety,
                            const ThreadLiveness &live, Reg r, int ts,
                            int tt, FlowGraph &out,
                            FlowGraphScratch &scratch);

/**
 * Build G_f for all memory dependences from @p ts to @p tt (§3.1.3)
 * into @p out: whole-region graph with one source/sink pair per
 * dependence.
 */
void buildMemoryFlowGraph(
    const FlowGraphInputs &in,
    const std::vector<std::pair<InstrId, InstrId>> &dep_pairs, int ts,
    int tt, FlowGraph &out, FlowGraphScratch &scratch);

} // namespace gmt

#endif // GMT_COCO_FLOW_GRAPH_HPP
