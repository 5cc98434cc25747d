#include "coco/flow_graph.hpp"

#include <algorithm>

#include "coco/relevant.hpp"
#include "support/error.hpp"

namespace gmt
{

CutGraphIndex::CutGraphIndex(const Function &f, const ControlDependence &cd)
{
    const int nb = f.numBlocks();
    trans_deps_.resize(nb);
    for (BlockId b = 0; b < nb; ++b)
        trans_deps_[b] = cd.transitiveDeps(b);

    // Blocks ascend, so a register's list is ascending once each block
    // is counted once per register (last_block stamps the block).
    std::vector<BlockId> last_block(f.numRegs(), kNoBlock);
    auto forEachTouch = [&](auto &&fn) {
        std::fill(last_block.begin(), last_block.end(), kNoBlock);
        for (BlockId b = 0; b < nb; ++b) {
            for (InstrId i : f.block(b).instrs()) {
                auto touch = [&](Reg r) {
                    if (last_block[r] != b) {
                        last_block[r] = b;
                        fn(r, b);
                    }
                };
                if (Reg d = f.defOf(i); d != kNoReg)
                    touch(d);
                for (Reg u : f.usesOf(i))
                    touch(u);
            }
        }
    };
    reg_off_.assign(f.numRegs() + 1, 0);
    forEachTouch([&](Reg r, BlockId) { ++reg_off_[r + 1]; });
    for (Reg r = 0; r < f.numRegs(); ++r)
        reg_off_[r + 1] += reg_off_[r];
    blocks_.resize(reg_off_.back());
    std::vector<int> next(reg_off_.begin(), reg_off_.end() - 1);
    forEachTouch([&](Reg r, BlockId b) { blocks_[next[r]++] = b; });
}

namespace
{

/**
 * Shared cost terms: §3.1.2 penalties and Property 2, read by both
 * builders for every arc cost.
 */
class GraphBuilder
{
  public:
    GraphBuilder(const FlowGraphInputs &in, int ts, int tt)
        : in_(in), ts_(ts), tt_(tt)
    {
        GMT_ASSERT(in.index, "flow graph builder without its index");
    }

    /** §3.1.2: weight of currently-irrelevant-to-tt branches that
     *  placing communication in @p b would force into tt. */
    Capacity
    penaltyFor(BlockId b) const
    {
        if (!in_.penalties)
            return 0;
        Capacity pen = 0;
        for (BlockId branch_block : in_.index->transDeps(b)) {
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

  private:
    const FlowGraphInputs &in_;
    int ts_, tt_;
};

} // namespace

void
buildRegisterFlowGraph(const FlowGraphInputs &in,
                       const SafetyAnalysis &safety,
                       const ThreadLiveness &live, Reg r, int ts,
                       int tt, FlowGraph &out, FlowGraphScratch &sc)
{
    GraphBuilder gb(in, ts, tt);
    const Function &f = *in.f;
    const Liveness &liveness = live.liveness();
    out.clear();

    // The walked blocks: r is live out of them, or they define or use
    // it. r is dead at every point of any other block (its backward
    // walk starts dead and nothing revives it), so such a block gets
    // no node and no arc, and the numbering of the rest is unchanged.
    auto &blocks = sc.blocks;
    auto &slot = sc.slot;
    blocks.clear();
    slot.resize(f.numBlocks());
    const std::span<const BlockId> touched = in.index->blocksOf(r);
    size_t ti = 0;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const bool touches = ti < touched.size() && touched[ti] == b;
        ti += touches;
        slot[b] = -1;
        if (touches || liveness.liveOut(b).test(r)) {
            slot[b] = static_cast<int>(blocks.size());
            blocks.push_back(b);
        }
    }
    const int nw = static_cast<int>(blocks.size());

    // Per-point liveness of r w.r.t. tt (one backward walk per block)
    // and safety of r for ts (forward, equation (1) for bit r), at
    // positions [0, size] of each walked block.
    auto &first = sc.first;
    first.resize(nw + 1);
    first[0] = 0;
    for (int k = 0; k < nw; ++k)
        first[k + 1] = first[k] + f.block(blocks[k]).size() + 1;
    auto &point_live = sc.point_live;
    auto &point_safe = sc.point_safe;
    point_live.resize(first[nw]);
    point_safe.resize(first[nw]);
    for (int k = 0; k < nw; ++k) {
        const BlockId b = blocks[k];
        const auto &instrs = f.block(b).instrs();
        char *pl = &point_live[first[k]];
        bool l = liveness.liveOut(b).test(r);
        pl[instrs.size()] = l;
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
            pl[pos] = l;
        }

        char *ps = &point_safe[first[k]];
        bool safe = safety.safeIn(b).test(r);
        ps[0] = safe;
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            safe = safety.safeAfter(r, safe, instrs[pos]);
            ps[pos + 1] = safe;
        }
    }
    auto liveAt = [&](int k, size_t pos) {
        return point_live[first[k] + pos] != 0;
    };

    // Node allocation: per walked block, its entry, then its
    // instructions (instr_node shares the per-point layout).
    FlowNetwork &net = out.net;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    entry_node.resize(nw);
    instr_node.resize(first[nw]);
    for (int k = 0; k < nw; ++k) {
        const size_t n = f.block(blocks[k]).size();
        entry_node[k] = liveAt(k, 0) ? net.addNode() : -1;
        for (size_t pos = 0; pos < n; ++pos)
            instr_node[first[k] + pos] =
                liveAt(k, pos) || liveAt(k, pos + 1) ? net.addNode()
                                                     : -1;
    }
    out.source = net.addNode();
    out.sink = net.addNode();

    auto pointCost = [&](int k, size_t pos,
                         Capacity base) -> Capacity {
        if (!point_safe[first[k] + pos])
            return kInfCapacity; // Property 3
        if (!gb.relevantToSource(blocks[k]))
            return kInfCapacity; // Property 2
        return base + gb.penaltyFor(blocks[k]);
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p) {
        int a = net.addArc(u, v, cost);
        GMT_ASSERT(static_cast<int>(out.arc_points.size()) == a);
        out.arc_points.push_back(p);
    };

    // Chain arcs within blocks.
    for (int k = 0; k < nw; ++k) {
        const BlockId b = blocks[k];
        const size_t n = f.block(b).size();
        const int *node = &instr_node[first[k]];
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[k] != -1 && n > 0 && node[0] != -1) {
            addArc(entry_node[k], node[0], pointCost(k, 0, bw),
                   ProgramPoint{b, 0});
        }
        for (size_t pos = 0; pos + 1 < n; ++pos) {
            if (node[pos] != -1 && node[pos + 1] != -1 &&
                liveAt(k, pos + 1)) {
                addArc(node[pos], node[pos + 1],
                       pointCost(k, pos + 1, bw),
                       ProgramPoint{b, static_cast<int>(pos) + 1});
            }
        }
    }
    // Inter-block arcs.
    for (int k = 0; k < nw; ++k) {
        const BlockId b = blocks[k];
        const size_t n = f.block(b).size();
        if (n == 0)
            continue;
        const int last = static_cast<int>(n) - 1;
        if (instr_node[first[k] + last] == -1)
            continue;
        const auto &succs = f.block(b).succs();
        for (size_t si = 0; si < succs.size(); ++si) {
            BlockId s = succs[si];
            const int ks = slot[s];
            if (ks == -1 || entry_node[ks] == -1)
                continue;
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(si)));
            // The point a cut of this arc selects: before the Jmp of
            // a single-successor block, or the entry of the (single-
            // predecessor, post-edge-split) target.
            ProgramPoint p = (succs.size() > 1)
                                 ? ProgramPoint{s, 0}
                                 : ProgramPoint{b, last};
            Capacity cost = (succs.size() > 1)
                                ? pointCost(ks, 0, ew)
                                : pointCost(k, last, ew);
            addArc(instr_node[first[k] + last], entry_node[ks], cost, p);
        }
    }

    // Special arcs: S -> defs of r in ts whose value lives on; uses
    // "in tt" (owned, or a branch replicated into tt) -> T.
    bool have_source = false, have_sink = false;
    for (int k = 0; k < nw; ++k) {
        const auto &instrs = f.block(blocks[k]).instrs();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            const int node = instr_node[first[k] + pos];
            if (node == -1)
                continue;
            if (f.defOf(i) == r && in.partition->threadOf(i) == ts &&
                liveAt(k, pos + 1)) {
                addArc(out.source, node, kInfCapacity,
                       ProgramPoint{kNoBlock, -1});
                have_source = true;
            }
            // Sinks: owned uses of tt, plus branches replicated into
            // tt — even when the branch itself is assigned to ts
            // (its replica in tt still needs the operand).
            if (live.usesCount(i)) {
                for (Reg use : f.usesOf(i)) {
                    if (use == r) {
                        addArc(node, out.sink, kInfCapacity,
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
    GraphBuilder gb(in, ts, tt);
    const Function &f = *in.f;
    out.clear();
    if (dep_pairs.empty()) {
        out.trivial = true;
        return;
    }

    // Whole-region graph: memory has no liveness restriction (§3.1.3).
    // Block b's entry node is entry_node[b], its instruction nodes
    // follow it.
    const int nb = f.numBlocks();
    FlowNetwork &net = out.net;
    auto &entry_node = sc.entry_node;
    entry_node.resize(nb);
    for (BlockId b = 0; b < nb; ++b) {
        entry_node[b] = net.addNode();
        for (size_t pos = 0; pos < f.block(b).size(); ++pos)
            net.addNode();
    }
    auto instrNode = [&](BlockId b, int pos) {
        return entry_node[b] + 1 + pos;
    };

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

    for (BlockId b = 0; b < nb; ++b) {
        const int n = static_cast<int>(f.block(b).size());
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (n > 0) {
            addArc(entry_node[b], instrNode(b, 0), pointCost(b, bw),
                   ProgramPoint{b, 0});
        }
        for (int pos = 0; pos + 1 < n; ++pos) {
            addArc(instrNode(b, pos), instrNode(b, pos + 1),
                   pointCost(b, bw), ProgramPoint{b, pos + 1});
        }
        int last = n - 1;
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
            addArc(instrNode(b, last), entry_node[s], cost, p);
        }
    }

    for (auto [src, dst] : dep_pairs) {
        int sn = instrNode(f.instr(src).block, f.positionOf(src));
        int tn = instrNode(f.instr(dst).block, f.positionOf(dst));
        out.pairs.emplace_back(sn, tn);
    }
}

} // namespace gmt
