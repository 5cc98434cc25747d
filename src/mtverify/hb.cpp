#include "mtverify/hb.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/mem_dep.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

namespace
{

bool
isProduce(Opcode op)
{
    return op == Opcode::Produce || op == Opcode::ProduceSync;
}

bool
isConsume(Opcode op)
{
    return op == Opcode::Consume || op == Opcode::ConsumeSync;
}

/** One node of a block's happens-before graph: a communication op or
 *  a memory-access copy some thread executes in its image of the
 *  block. */
struct HbEvent
{
    int thread = -1;
    InstrId instr = kNoInstr; ///< emitted instruction
    bool produce = false;
    bool consume = false;
    QueueId queue = kNoQueue;
};

/**
 * Happens-before graph of one original block's instance, with its
 * transitive closure and the block-level summaries the cross-instance
 * walk consumes.
 *
 * Edges are exactly the real ordering constraints of one traversal of
 * the block: program order within each thread's image, match edges
 * from the k-th produce on a queue to the k-th consume (the consume
 * cannot retire before the value exists), and capacity edges from the
 * k-th consume back to the (k + capacity)-th produce (a full queue
 * blocks the producer). Matching the k-th produce with the k-th
 * consume inside the block is justified by queue balance (theorem 2):
 * in plan-faithful code both endpoints visit the shared placement
 * points in the same order, so no token is in flight across a block
 * boundary.
 */
struct BlockHbGraph
{
    std::vector<HbEvent> events;

    /** events[i] -> set of events reachable from i (reflexive). */
    std::vector<BitVector> reach;

    /** thread -> index of its first event here, or -1. */
    std::vector<int> first_of;

    /**
     * Block-level sync-chain transfer: bit d of transfer[s] is set
     * iff a thread ordered-after-x at this block's entry as s leaves
     * the block with d ordered-after-x too (s reaches some event of d
     * through the closure; trivially d == s).
     */
    std::vector<uint32_t> transfer;

    /** (thread, emitted InstrId) -> event index. */
    std::map<std::pair<int, InstrId>, int> index;

    int
    eventOf(int thread, InstrId instr) const
    {
        auto it = index.find({thread, instr});
        return it == index.end() ? -1 : it->second;
    }

    /** Threads ordered after event @p e once the block completes. */
    uint32_t
    maskFrom(int e) const
    {
        uint32_t mask = 0;
        for (size_t j = 0; j < events.size(); ++j)
            if (reach[e].test(j))
                mask |= uint32_t{1} << events[j].thread;
        return mask;
    }

    /**
     * Is event @p e ordered after some thread of @p mask, given that
     * every thread in @p mask was ordered-after-x when this block's
     * instance began? Its own thread orders it by program order; any
     * other thread t must reach @p e from t's first event here.
     */
    bool
    orderedAtEntry(uint32_t mask, int e) const
    {
        if (mask & (uint32_t{1} << events[e].thread))
            return true;
        for (size_t t = 0; t < first_of.size(); ++t) {
            if (!(mask & (uint32_t{1} << t)) || first_of[t] < 0)
                continue;
            if (reach[first_of[t]].test(e))
                return true;
        }
        return false;
    }
};

BlockHbGraph
buildBlockGraph(const MtProgram &prog,
                const std::vector<ThreadCodeMap> &maps, BlockId ob,
                std::vector<std::vector<bool>> &direct_sync)
{
    int nt = static_cast<int>(prog.threads.size());
    BlockHbGraph g;
    g.first_of.assign(nt, -1);

    std::vector<std::vector<int>> by_thread(nt);
    for (int t = 0; t < nt; ++t) {
        BlockId eb = maps[t].emitted_block.empty()
                         ? kNoBlock
                         : maps[t].emitted_block[ob];
        if (eb == kNoBlock)
            continue;
        for (InstrId ei : prog.threads[t].block(eb).instrs()) {
            const Instr &in = prog.threads[t].instr(ei);
            if (!in.isCommunication() && !in.isMemoryAccess())
                continue;
            int idx = static_cast<int>(g.events.size());
            by_thread[t].push_back(idx);
            g.index[{t, ei}] = idx;
            g.events.push_back({t, ei, isProduce(in.op),
                                isConsume(in.op), in.queue});
            if (g.first_of[t] < 0)
                g.first_of[t] = idx;
        }
    }

    int n = static_cast<int>(g.events.size());
    std::vector<std::vector<int>> adj(n);

    // Program order within each thread's image.
    for (int t = 0; t < nt; ++t)
        for (size_t k = 1; k < by_thread[t].size(); ++k)
            adj[by_thread[t][k - 1]].push_back(by_thread[t][k]);

    // Match and capacity edges per queue (same structure as the
    // deadlock checker's wait-for graph, here read as ordering).
    std::map<QueueId, std::pair<std::vector<int>, std::vector<int>>>
        per_queue;
    for (int i = 0; i < n; ++i) {
        if (!g.events[i].produce && !g.events[i].consume)
            continue;
        auto &[prods, conss] = per_queue[g.events[i].queue];
        (g.events[i].produce ? prods : conss).push_back(i);
    }
    for (auto &[q, pc] : per_queue) {
        auto &[prods, conss] = pc;
        size_t matched = std::min(prods.size(), conss.size());
        for (size_t k = 0; k < matched; ++k) {
            adj[prods[k]].push_back(conss[k]);
            direct_sync[g.events[prods[k]].thread]
                       [g.events[conss[k]].thread] = true;
        }
        size_t cap = static_cast<size_t>(prog.queue_capacity);
        for (size_t k = 0; k + cap < prods.size(); ++k)
            if (k < conss.size())
                adj[conss[k]].push_back(prods[k + cap]);
    }

    // Transitive closure by union fixpoint (graphs are tiny; a cycle
    // here is a deadlock, reported by theorem 3).
    g.reach.assign(n, BitVector(n));
    for (int i = 0; i < n; ++i)
        g.reach[i].set(i);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int v = n - 1; v >= 0; --v)
            for (int w : adj[v])
                changed |= g.reach[v].unionWith(g.reach[w]);
    }

    g.transfer.assign(nt, 0);
    for (int t = 0; t < nt; ++t) {
        g.transfer[t] = uint32_t{1} << t;
        if (g.first_of[t] >= 0)
            g.transfer[t] |= g.maskFrom(g.first_of[t]);
    }
    return g;
}

/** One conflicting cross-thread pair to prove ordered. */
struct ConflictPair
{
    InstrId src = kNoInstr;
    InstrId dst = kNoInstr;
};

/**
 * Cross-instance ordering: walk the original CFG from src's block,
 * carrying the monotone set of threads whose next action is known to
 * happen after src. Produce->consume chains (any token kind) grow the
 * set via the per-block transfer summaries; every arrival at dst's
 * block must find dst ordered. Visited-state pruning keeps minimal
 * masks per block, so the walk covers paths of any length (and any
 * loop iteration count) in finite state.
 */
bool
orderedAcrossInstances(const Function &orig,
                       const std::vector<BlockHbGraph> &graphs,
                       int src_event, BlockId src_block,
                       int dst_event, BlockId dst_block)
{
    uint32_t start = graphs[src_block].maskFrom(src_event);
    std::vector<std::vector<uint32_t>> visited(orig.numBlocks());
    std::vector<std::pair<BlockId, uint32_t>> work;
    for (BlockId s : orig.block(src_block).succs())
        work.push_back({s, start});

    while (!work.empty()) {
        auto [b, mask] = work.back();
        work.pop_back();
        bool dominated = false;
        for (uint32_t v : visited[b])
            if ((v & mask) == v) {
                dominated = true;
                break;
            }
        if (dominated)
            continue;
        visited[b].push_back(mask);

        if (b == dst_block &&
            !graphs[b].orderedAtEntry(mask, dst_event))
            return false;

        uint32_t out = 0;
        for (size_t t = 0; t < graphs[b].transfer.size(); ++t)
            if (mask & (uint32_t{1} << t))
                out |= graphs[b].transfer[t];
        for (BlockId s : orig.block(b).succs())
            work.push_back({s, out});
    }
    return true;
}

} // namespace

HbStats
checkHappensBefore(const Function &orig, const Pdg &pdg,
                   const ThreadPartition &partition,
                   const CommPlan &plan, const MtProgram &prog,
                   const std::vector<ThreadCodeMap> &maps,
                   std::vector<MtvDiag> &diags)
{
    HbStats stats;
    int nt = static_cast<int>(prog.threads.size());
    if (nt > 32)
        return stats; // mask width; far beyond any real partition

    // The obligation set: cross-thread memory PDG arcs, unioned with
    // the conflicting pairs re-derived from alias classes so a
    // corrupted PDG cannot shrink what we must prove. The re-derivation
    // costs a few percent of verify-mt and stays on purpose: reusing
    // the PDG's arcs would make the check trust what it checks.
    std::set<std::pair<InstrId, InstrId>> pair_set;
    for (const PdgArc *arc : pdg.memArcs()) {
        if (partition.threadOf(arc->src) == partition.threadOf(arc->dst))
            continue;
        ++stats.arcs_checked;
        pair_set.insert({arc->src, arc->dst});
    }
    for (const MemDep &dep : computeMemDeps(orig))
        if (partition.threadOf(dep.src) != partition.threadOf(dep.dst))
            pair_set.insert({dep.src, dep.dst});

    // Which (src thread, dst thread) pairs have at least one
    // conflicting pair — the redundancy oracle for sync placements.
    std::vector<std::vector<bool>> conflicting(
        nt, std::vector<bool>(nt, false));
    for (const auto &[x, y] : pair_set)
        conflicting[partition.threadOf(x)][partition.threadOf(y)] =
            true;

    // A memory-sync placement between threads with nothing to order
    // is a cut wider than the dependence set: legal, but each token
    // costs a queue slot and an M-slot on both cores every traversal.
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        if (pl.kind != CommKind::MemorySync)
            continue;
        ++stats.sync_placements;
        if (pl.src_thread < 0 || pl.src_thread >= nt ||
            pl.dst_thread < 0 || pl.dst_thread >= nt)
            continue; // malformed plan; validatePlan's problem
        if (conflicting[pl.src_thread][pl.dst_thread])
            continue;
        std::ostringstream msg;
        msg << "memory-sync placement " << pi << " (T" << pl.src_thread
            << " -> T" << pl.dst_thread
            << ") orders no conflicting memory operations";
        diags.push_back(
            {.code = MtvCode::HbRedundantSync,
             .severity = MtvSeverity::Warning,
             .thread = pl.src_thread,
             .block = pl.points.empty() ? kNoBlock
                                        : pl.points.front().block,
             .pos = pl.points.empty() ? -1 : pl.points.front().pos,
             .message = msg.str()});
    }

    if (pair_set.empty())
        return stats;

    for (const ThreadCodeMap &m : maps)
        if (m.broken)
            return stats; // block images unusable; already reported

    // Per-block happens-before closures, and the set of thread pairs
    // with any direct produce->consume edge (for classifying an
    // unordered pair as missing sync vs. misplaced sync).
    std::vector<std::vector<bool>> direct(nt,
                                          std::vector<bool>(nt, false));
    std::vector<BlockHbGraph> graphs;
    graphs.reserve(orig.numBlocks());
    for (BlockId b = 0; b < orig.numBlocks(); ++b)
        graphs.push_back(buildBlockGraph(prog, maps, b, direct));

    auto copyEvent = [&](InstrId oi, int t, BlockId ob) -> int {
        const auto &copies = maps[t].copies_of[oi];
        if (copies.size() != 1)
            return -1; // missing/duplicated copy: reported elsewhere
        const Instr &c = prog.threads[t].instr(copies[0]);
        if (maps[t].emitted_block.empty() ||
            maps[t].emitted_block[ob] != c.block)
            return -1; // wrong block: reported elsewhere
        return graphs[ob].eventOf(t, copies[0]);
    };

    for (const auto &[x, y] : pair_set) {
        ++stats.pairs_checked;
        int tx = partition.threadOf(x);
        int ty = partition.threadOf(y);
        BlockId bx = orig.instr(x).block;
        BlockId by = orig.instr(y).block;
        int ex = copyEvent(x, tx, bx);
        int ey = copyEvent(y, ty, by);
        if (ex < 0 || ey < 0)
            continue;

        bool ordered = true;
        bool same_instance_case =
            bx == by && orig.positionOf(x) < orig.positionOf(y);
        if (same_instance_case)
            ordered = graphs[bx].reach[ex].test(ey);
        if (ordered)
            ordered = orderedAcrossInstances(orig, graphs, ex, bx, ey,
                                             by);
        if (ordered)
            continue;

        std::ostringstream msg;
        msg << "conflicting memory ops i" << x << " (T" << tx
            << ") and i" << y << " (T" << ty << "): ";
        MtvCode code;
        if (direct[tx][ty]) {
            code = MtvCode::HbSyncWrongPath;
            msg << "synchronization from T" << tx << " to T" << ty
                << " exists but does not order the pair on every path";
        } else {
            code = MtvCode::HbDataRace;
            msg << "no happens-before ordering on any sync chain";
        }
        diags.push_back({.code = code,
                         .thread = ty,
                         .block = by,
                         .pos = orig.positionOf(y),
                         .instr = y,
                         .message = msg.str()});
    }
    return stats;
}

} // namespace gmt
