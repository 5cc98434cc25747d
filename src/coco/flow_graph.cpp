#include "coco/flow_graph.hpp"

#include <algorithm>

#include "coco/relevant.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/**
 * Shared scaffolding: node layout over (block entries, instruction
 * positions), chain arcs, and inter-block arcs, parameterized by a
 * point-inclusion predicate and per-point extra costs.
 */
class GraphBuilder
{
  public:
    GraphBuilder(const FlowGraphInputs &in, FlowGraphScratch &scratch,
                 int ts, int tt)
        : in_(in), ts_(ts), tt_(tt), f_(*in.f)
    {
        if (in.trans_deps) {
            trans_deps_ = in.trans_deps;
        } else {
            scratch.local_trans_deps.resize(f_.numBlocks());
            for (BlockId b = 0; b < f_.numBlocks(); ++b)
                scratch.local_trans_deps[b] =
                    in_.cd->transitiveDeps(b);
            trans_deps_ = &scratch.local_trans_deps;
        }
    }

    /** §3.1.2: weight of currently-irrelevant-to-tt branches that
     *  placing communication in @p b would force into tt. */
    Capacity
    penaltyFor(BlockId b) const
    {
        if (!in_.penalties)
            return 0;
        Capacity pen = 0;
        for (BlockId branch_block : (*trans_deps_)[b]) {
            if (!(*in_.relevant)[tt_].test(branch_block))
                pen += static_cast<Capacity>(
                    in_.profile->blockWeight(branch_block));
        }
        return pen;
    }

    /** Property 2: may the source thread communicate at block @p b? */
    bool
    relevantToSource(BlockId b) const
    {
        return isRelevantPoint(*in_.cd, (*in_.relevant)[ts_], b);
    }

  protected:
    const FlowGraphInputs &in_;
    int ts_, tt_;
    const Function &f_;
    const std::vector<std::vector<BlockId>> *trans_deps_;
};

} // namespace

void
buildRegisterFlowGraph(const FlowGraphInputs &in,
                       const SafetyAnalysis &safety,
                       const ThreadLiveness &live, Reg r, int ts,
                       int tt, FlowGraph &out, FlowGraphScratch &sc)
{
    GraphBuilder gb(in, sc, ts, tt);
    const Function &f = *in.f;
    out.clear();

    // Per-point liveness of r w.r.t. tt: point_live[b][pos] for
    // pos in [0, size], via one backward walk per block.
    auto &point_live = sc.point_live;
    point_live.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        point_live[b].assign(instrs.size() + 1, 0);
        bool l = live.liveness().liveOut(b).test(r);
        point_live[b][instrs.size()] = l;
        for (int pos = static_cast<int>(instrs.size()) - 1; pos >= 0;
             --pos) {
            InstrId i = instrs[pos];
            if (f.defOf(i) == r)
                l = false;
            if (live.usesCount(i)) {
                for (Reg use : f.usesOf(i)) {
                    if (use == r)
                        l = true;
                }
            }
            point_live[b][pos] = l;
        }
    }

    // Per-point safety of r for ts, forward per block: equation (1)
    // restricted to bit r (any def of r resets it, ts's own defs and
    // uses of r set it).
    auto &point_safe = sc.point_safe;
    point_safe.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        point_safe[b].assign(instrs.size() + 1, 0);
        bool safe = safety.safeIn(b).test(r);
        point_safe[b][0] = safe;
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            bool mine = in.partition->threadOf(i) == ts;
            if (f.defOf(i) == r)
                safe = mine;
            if (mine && !safe) {
                for (Reg use : f.usesOf(i))
                    safe |= use == r;
            }
            point_safe[b][pos + 1] = safe;
        }
    }

    // Node allocation.
    FlowNetwork &net = out.net;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    entry_node.assign(f.numBlocks(), -1);
    instr_node.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        instr_node[b].assign(instrs.size(), -1);
        if (point_live[b][0])
            entry_node[b] = net.addNode();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            if (point_live[b][pos] || point_live[b][pos + 1])
                instr_node[b][pos] = net.addNode();
        }
    }
    out.source = net.addNode();
    out.sink = net.addNode();

    auto pointCost = [&](BlockId b, int pos,
                         Capacity base) -> Capacity {
        if (!point_safe[b][pos])
            return kInfCapacity; // Property 3
        if (!gb.relevantToSource(b))
            return kInfCapacity; // Property 2
        return base + gb.penaltyFor(b);
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p) {
        int a = net.addArc(u, v, cost);
        GMT_ASSERT(static_cast<int>(out.arc_points.size()) == a);
        out.arc_points.push_back(p);
    };

    // Chain arcs within blocks.
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[b] != -1 && !instrs.empty() &&
            instr_node[b][0] != -1 && point_live[b][0]) {
            addArc(entry_node[b], instr_node[b][0],
                   pointCost(b, 0, bw), ProgramPoint{b, 0});
        }
        for (size_t pos = 0; pos + 1 < instrs.size(); ++pos) {
            if (instr_node[b][pos] != -1 &&
                instr_node[b][pos + 1] != -1 &&
                point_live[b][pos + 1]) {
                addArc(instr_node[b][pos], instr_node[b][pos + 1],
                       pointCost(b, static_cast<int>(pos) + 1, bw),
                       ProgramPoint{b, static_cast<int>(pos) + 1});
            }
        }
    }
    // Inter-block arcs.
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        if (instrs.empty())
            continue;
        int last = static_cast<int>(instrs.size()) - 1;
        if (instr_node[b][last] == -1)
            continue;
        const auto &succs = f.block(b).succs();
        for (size_t slot = 0; slot < succs.size(); ++slot) {
            BlockId s = succs[slot];
            if (entry_node[s] == -1 || !point_live[s][0])
                continue;
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(slot)));
            // The point a cut of this arc selects: before the Jmp of
            // a single-successor block, or the entry of the (single-
            // predecessor, post-edge-split) target.
            ProgramPoint p = (succs.size() > 1)
                                 ? ProgramPoint{s, 0}
                                 : ProgramPoint{b, last};
            Capacity cost = (succs.size() > 1)
                                ? pointCost(s, 0, ew)
                                : pointCost(b, last, ew);
            addArc(instr_node[b][last], entry_node[s], cost, p);
        }
    }

    // Special arcs: S -> defs of r in ts whose value lives on; uses
    // "in tt" (owned, or a branch replicated into tt) -> T.
    bool have_source = false, have_sink = false;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            if (instr_node[b][pos] == -1)
                continue;
            if (f.defOf(i) == r && in.partition->threadOf(i) == ts &&
                point_live[b][pos + 1]) {
                addArc(out.source, instr_node[b][pos], kInfCapacity,
                       ProgramPoint{kNoBlock, -1});
                have_source = true;
            }
            // Sinks: owned uses of tt, plus branches replicated into
            // tt — even when the branch itself is assigned to ts
            // (its replica in tt still needs the operand).
            if (live.usesCount(i)) {
                for (Reg use : f.usesOf(i)) {
                    if (use == r) {
                        addArc(instr_node[b][pos], out.sink,
                               kInfCapacity,
                               ProgramPoint{kNoBlock, -1});
                        have_sink = true;
                        break;
                    }
                }
            }
        }
    }
    out.trivial = !have_source || !have_sink;
}

void
buildMemoryFlowGraph(const FlowGraphInputs &in,
                     const std::vector<std::pair<InstrId, InstrId>>
                         &dep_pairs,
                     int ts, int tt, FlowGraph &out,
                     FlowGraphScratch &sc)
{
    GraphBuilder gb(in, sc, ts, tt);
    const Function &f = *in.f;
    out.clear();
    if (dep_pairs.empty()) {
        out.trivial = true;
        return;
    }

    // Whole-region graph: memory has no liveness restriction (§3.1.3).
    FlowNetwork &net = out.net;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    entry_node.assign(f.numBlocks(), -1);
    instr_node.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        entry_node[b] = net.addNode();
        const auto &instrs = f.block(b).instrs();
        instr_node[b].resize(instrs.size());
        for (size_t pos = 0; pos < instrs.size(); ++pos)
            instr_node[b][pos] = net.addNode();
    }

    auto pointCost = [&](BlockId b, Capacity base) -> Capacity {
        // No safety constraint for pure synchronization; Property 2
        // still forbids points irrelevant to the source thread.
        if (!gb.relevantToSource(b))
            return kInfCapacity;
        return base + gb.penaltyFor(b);
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p) {
        int a = net.addArc(u, v, cost);
        GMT_ASSERT(static_cast<int>(out.arc_points.size()) == a);
        out.arc_points.push_back(p);
    };

    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (!instrs.empty()) {
            addArc(entry_node[b], instr_node[b][0], pointCost(b, bw),
                   ProgramPoint{b, 0});
        }
        for (size_t pos = 0; pos + 1 < instrs.size(); ++pos) {
            addArc(instr_node[b][pos], instr_node[b][pos + 1],
                   pointCost(b, bw),
                   ProgramPoint{b, static_cast<int>(pos) + 1});
        }
        int last = static_cast<int>(instrs.size()) - 1;
        const auto &succs = f.block(b).succs();
        for (size_t slot = 0; slot < succs.size(); ++slot) {
            BlockId s = succs[slot];
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(slot)));
            ProgramPoint p = (succs.size() > 1)
                                 ? ProgramPoint{s, 0}
                                 : ProgramPoint{b, last};
            Capacity cost = (succs.size() > 1) ? pointCost(s, ew)
                                               : pointCost(b, ew);
            addArc(instr_node[b][last], entry_node[s], cost, p);
        }
    }

    for (auto [src, dst] : dep_pairs) {
        int sn = instr_node[f.instr(src).block][f.positionOf(src)];
        int tn = instr_node[f.instr(dst).block][f.positionOf(dst)];
        out.pairs.emplace_back(sn, tn);
    }
}

} // namespace gmt
