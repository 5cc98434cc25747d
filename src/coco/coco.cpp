#include "coco/coco.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "coco/flow_graph.hpp"
#include "coco/relevant.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "coco/validate.hpp"
#include "graph/multi_cut.hpp"
#include "graph/scc.hpp"
#include "obs/trace_writer.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

using RegKey = std::tuple<int, int, Reg>;      // (ts, tt, r)
using PairKey = std::pair<int, int>;           // (ts, tt)
using PointList = std::vector<ProgramPoint>;

/** Safety cap on the repeat-until loop, which converges on its own:
 *  relevant-branch sets only grow (paper §3.2). */
constexpr int kMaxIterations = 16;

PointList
normalize(PointList points)
{
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    return points;
}

/** Threads that need the value consumed by instruction u. */
void
needersOf(const Function &f, const ThreadPartition &partition,
          const std::vector<BitVector> &relevant, InstrId u,
          std::vector<int> &out)
{
    out.clear();
    out.push_back(partition.threadOf(u));
    if (f.instr(u).isBranch()) {
        for (int t = 0; t < partition.num_threads; ++t) {
            if (t != partition.threadOf(u) &&
                relevant[t].test(f.instr(u).block)) {
                out.push_back(t);
            }
        }
    }
}

/**
 * Default (MTCG) placement: right after each contributing def.
 * @p reg_arcs is the per-register index over the PDG's register arcs
 * (built once per cocoOptimize; the old code re-scanned every arc per
 * (ts, tt, reg) triple).
 */
PointList
defaultRegPoints(const Function &f, const Pdg &pdg,
                 const ThreadPartition &partition,
                 const std::vector<BitVector> &relevant,
                 const std::vector<std::vector<int>> &reg_arcs, int ts,
                 int tt, Reg r, std::vector<int> &needers)
{
    PointList points;
    if (r >= 0 && r < static_cast<Reg>(reg_arcs.size())) {
        for (int ai : reg_arcs[r]) {
            const auto &arc = pdg.arcs()[ai];
            if (partition.threadOf(arc.src) != ts)
                continue;
            needersOf(f, partition, relevant, arc.dst, needers);
            if (std::find(needers.begin(), needers.end(), tt) ==
                needers.end())
                continue;
            points.push_back({f.instr(arc.src).block,
                              f.positionOf(arc.src) + 1});
        }
    }
    return normalize(std::move(points));
}

using ProblemKey = std::tuple<int, int, bool, Reg>; // (ts, tt, mem, r)

/** The walk's solving arena: flow graph + builder scratch + solver,
 *  all storage reused across problems. */
struct CutArena
{
    FlowGraph fg;
    FlowGraphScratch scratch;
    MaxFlow mf;
};

/** One enumerated cut problem, in canonical (apply) order. */
struct CutProblem
{
    int pair_idx; ///< index into the iteration's pair order
    int ts, tt;
    bool is_mem;
    Reg r; ///< kNoReg for memory problems

    /** Memory problems: the pair's dependence list (stable). */
    const std::vector<std::pair<InstrId, InstrId>> *deps = nullptr;
};

/**
 * A solved cut, tagged with the relevant-set versions it was built
 * under. Valid for consumption only while both versions still match:
 * the reuse rule of the cut cache.
 */
struct CachedCut
{
    bool valid = false; ///< holds a solved cut
    uint64_t vts = 0, vtt = 0;
    bool finite = true;
    Capacity cost = 0;
    PointList points; ///< normalized cut points (may be empty)

    /** Provenance payload: per-point cost over the min-cut arcs
     *  (deterministic: the cut arc set is unique) and the solved
     *  graph size. */
    std::vector<CutPointCost> breakdown;
    int graph_nodes = 0;
    int graph_arcs = 0;
};

/** Aggregate per-arc (point, capacity) samples into the sorted
 *  per-point breakdown CachedCut carries. */
void
normalizeBreakdown(std::vector<CutPointCost> &b)
{
    std::sort(b.begin(), b.end(),
              [](const CutPointCost &x, const CutPointCost &y) {
                  return std::tie(x.block, x.pos) <
                         std::tie(y.block, y.pos);
              });
    size_t out = 0;
    for (size_t i = 0; i < b.size(); ++i) {
        if (out > 0 && b[out - 1].block == b[i].block &&
            b[out - 1].pos == b[i].pos) {
            b[out - 1].cost += b[i].cost;
            b[out - 1].arcs += b[i].arcs;
        } else {
            b[out++] = b[i];
        }
    }
    b.resize(out);
}

/** Fill @p out from the min-cut arcs @p cut_arcs (total @p cost) of
 *  the solved graph @p fg. */
void
recordCut(const FlowGraph &fg, const std::vector<int> &cut_arcs,
          Capacity cost, CachedCut &out)
{
    out.cost = cost;
    out.graph_nodes = fg.net.numNodes();
    out.graph_arcs = fg.net.numArcs();
    for (int a : cut_arcs) {
        GMT_ASSERT(fg.arc_points[a].block != kNoBlock);
        out.points.push_back(fg.arc_points[a]);
        out.breakdown.push_back(
            {fg.arc_points[a].block, fg.arc_points[a].pos,
             static_cast<int64_t>(fg.net.arcCapacity(a)), 1});
    }
    out.points = normalize(std::move(out.points));
    normalizeBreakdown(out.breakdown);
}

/** Reset @p out to the empty (trivial, finite) cut. */
void
clearCut(CachedCut &out)
{
    out.finite = true;
    out.cost = 0;
    out.points.clear();
    out.breakdown.clear();
    out.graph_nodes = 0;
    out.graph_arcs = 0;
}

/** Build and solve the min-cut for one register problem. */
void
solveRegCut(const FlowGraphInputs &in, const SafetyAnalysis &safety,
            const ThreadLiveness &live, Reg r, int ts, int tt,
            CutArena &arena, CachedCut &out)
{
    clearCut(out);
    FlowGraph &fg = arena.fg;
    buildRegisterFlowGraph(in, safety, live, r, ts, tt, fg,
                           arena.scratch);
    if (fg.trivial)
        return;
    arena.mf.attach(fg.net);
    Capacity flow = arena.mf.solve(fg.source, fg.sink);
    out.finite = arena.mf.finite();
    if (out.finite)
        recordCut(fg, arena.mf.minCutArcs(), flow, out);
}

/** Multi-pair (or super-pair) cut for one pair's memory problem. */
void
solveMemCut(const FlowGraphInputs &in,
            const std::vector<std::pair<InstrId, InstrId>> &deps,
            int ts, int tt, const CocoOptions &opts, CutArena &arena,
            CachedCut &out)
{
    clearCut(out);
    FlowGraph &fg = arena.fg;
    buildMemoryFlowGraph(in, deps, ts, tt, fg, arena.scratch);
    MultiCutResult cut =
        opts.multi_pair_memory
            ? multiPairMinCut(fg.net, fg.pairs, CutSide::Sink, &arena.mf)
            : superPairMinCut(fg.net, fg.pairs, &arena.mf);
    out.finite = cut.finite;
    if (out.finite)
        recordCut(fg, cut.arcs, cut.cost, out);
}

} // namespace

CocoResult
cocoOptimize(const Function &f, const Pdg &pdg,
             const ThreadPartition &partition,
             const ControlDependence &cd, const EdgeProfile &profile,
             const CocoOptions &opts, const CocoExec &exec)
{
    CocoResult result;
    const int nt = partition.num_threads;

    std::vector<BitVector> relevant =
        initRelevantBranches(f, cd, partition);

    // Safety depends only on the partition: compute once per thread.
    std::vector<std::unique_ptr<SafetyAnalysis>> safety;
    for (int t = 0; t < nt; ++t)
        safety.push_back(
            std::make_unique<SafetyAnalysis>(f, partition, t));

    // Transitive control dependences and each register's def/use
    // blocks are immutable per function: built once for every graph.
    const CutGraphIndex index(f, cd);

    // Per-register index over the PDG's register arcs, so the default
    // placement fallback stops re-scanning every arc per problem.
    std::vector<std::vector<int>> reg_arcs(f.numRegs());
    {
        const auto &arcs = pdg.arcs();
        for (int ai = 0; ai < static_cast<int>(arcs.size()); ++ai) {
            const auto &arc = arcs[ai];
            if (arc.kind == DepKind::Register && arc.reg >= 0 &&
                arc.reg < static_cast<Reg>(reg_arcs.size()))
                reg_arcs[arc.reg].push_back(ai);
        }
    }

    // Relevant-set version counters: bumped whenever rule-2 growth
    // actually adds a branch. A cut solved under versions (vts, vtt)
    // is byte-equivalent to a fresh solve exactly while both versions
    // still match at its place in the apply walk.
    std::vector<uint64_t> rel_version(nt, 0);
    auto grow = [&](int tt, const ProgramPoint &p) {
        if (growRelevantForPoint(f, cd, relevant[tt], p))
            ++rel_version[tt];
    };

    // ThreadLiveness is a pure function of (thread, relevant[thread])
    // — memoized on (thread, version) and shared by every register
    // problem of a pair (the old code rebuilt it per pair per
    // iteration even when nothing changed).
    std::map<std::pair<int, uint64_t>,
             std::shared_ptr<const ThreadLiveness>>
        liveness_memo;
    auto livenessFor = [&](int tt) -> const ThreadLiveness & {
        auto key = std::make_pair(tt, rel_version[tt]);
        auto it = liveness_memo.find(key);
        if (it != liveness_memo.end())
            return *it->second;
        auto live = std::make_shared<const ThreadLiveness>(
            f, partition, tt, relevant[tt]);
        return *liveness_memo.emplace(key, std::move(live))
                    .first->second;
    };

    // Solved-cut cache, persistent across repeat-until iterations
    // (validity is version-checked, and the relevant sets are
    // monotone, so stale entries never revalidate).
    std::map<ProblemKey, CachedCut> cut_cache;
    auto slotFor = [&](const CutProblem &p) -> CachedCut & {
        return cut_cache[ProblemKey{p.ts, p.tt, p.is_mem, p.r}];
    };

    CutArena arena;
    CachedCut inline_cut;

    // Flat sorted accumulators (same iteration order as the old
    // std::map-keyed ones: ascending unique keys).
    std::vector<std::pair<RegKey, PointList>> reg_placements;
    std::vector<std::pair<PairKey, PointList>> mem_placements;

    // Decision records shadowing the accumulators (same keys, same
    // order), kept across iterations so a decision can tell which
    // iteration its final point set first appeared in.
    std::vector<std::pair<RegKey, PlacementDecision>> reg_decs;
    std::vector<std::pair<PairKey, PlacementDecision>> mem_decs;
    // Last iteration's decision under key @p k in @p decs (sorted).
    auto prevDec = [](const auto &decs,
                      const auto &k) -> const PlacementDecision * {
        auto it = std::lower_bound(
            decs.begin(), decs.end(), k,
            [](const auto &e, const auto &key) { return e.first < key; });
        return it != decs.end() && it->first == k ? &it->second
                                                  : nullptr;
    };
    auto byKey = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };

    std::vector<int> needers;

    for (int iter = 0; iter < kMaxIterations; ++iter) {
        ++result.iterations;
        result.register_cut_cost = 0;
        result.memory_cut_cost = 0;

        // ---- Phase 1: enumerate this iteration's cut problems. ----

        // Register work: (pair, reg) entries, sorted + deduplicated
        // (== the old map<PairKey, set<Reg>> in iteration order).
        std::vector<std::pair<PairKey, Reg>> reg_entries;
        // Memory work: per-pair dependence lists in PDG-arc order
        // (stable sort groups by pair, preserving the arc order the
        // multi-pair heuristic sees).
        std::vector<std::pair<PairKey, std::pair<InstrId, InstrId>>>
            mem_entries;
        for (const auto &arc : pdg.arcs()) {
            int ts = partition.threadOf(arc.src);
            if (arc.kind == DepKind::Register) {
                needersOf(f, partition, relevant, arc.dst, needers);
                for (int tt : needers) {
                    if (tt != ts)
                        reg_entries.push_back({{ts, tt}, arc.reg});
                }
            } else if (arc.kind == DepKind::Memory) {
                int tt = partition.threadOf(arc.dst);
                if (tt != ts)
                    mem_entries.push_back(
                        {{ts, tt}, {arc.src, arc.dst}});
            }
        }
        std::sort(reg_entries.begin(), reg_entries.end());
        reg_entries.erase(
            std::unique(reg_entries.begin(), reg_entries.end()),
            reg_entries.end());
        std::stable_sort(mem_entries.begin(), mem_entries.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<std::pair<PairKey,
                              std::vector<std::pair<InstrId, InstrId>>>>
            mem_work;
        for (const auto &[key, dep] : mem_entries) {
            if (mem_work.empty() || mem_work.back().first != key)
                mem_work.push_back({key, {}});
            mem_work.back().second.push_back(dep);
        }

        // Quasi-topological order over the thread graph reduces the
        // number of repeat-until iterations (paper §3.2).
        Digraph tg(nt);
        std::vector<PairKey> pair_order;
        for (const auto &[key, _] : reg_entries) {
            tg.addEdge(key.first, key.second);
            if (pair_order.empty() || pair_order.back() != key)
                pair_order.push_back(key);
        }
        const size_t reg_pairs = pair_order.size(); // sorted prefix
        for (const auto &[key, _] : mem_work) {
            tg.addEdge(key.first, key.second);
            if (!std::binary_search(pair_order.begin(),
                                    pair_order.begin() + reg_pairs,
                                    key))
                pair_order.push_back(key);
        }
        SccResult tg_sccs = computeSccs(tg);
        std::sort(pair_order.begin(), pair_order.end(),
                  [&](const PairKey &a, const PairKey &b) {
                      auto ka = std::make_tuple(
                          tg_sccs.component[a.first],
                          tg_sccs.component[a.second], a);
                      auto kb = std::make_tuple(
                          tg_sccs.component[b.first],
                          tg_sccs.component[b.second], b);
                      return ka < kb;
                  });

        // Flatten into the canonical problem sequence: for each pair
        // in order, its registers ascending, then its memory problem.
        std::vector<CutProblem> problems;
        {
            std::map<PairKey, int> pair_idx_of;
            for (int pi = 0;
                 pi < static_cast<int>(pair_order.size()); ++pi)
                pair_idx_of[pair_order[pi]] = pi;
            std::vector<std::vector<Reg>> regs_of(pair_order.size());
            for (const auto &[key, r] : reg_entries)
                regs_of[pair_idx_of[key]].push_back(r);
            std::map<PairKey, int> mem_idx_of;
            for (int mi = 0;
                 mi < static_cast<int>(mem_work.size()); ++mi)
                mem_idx_of[mem_work[mi].first] = mi;
            for (int pi = 0;
                 pi < static_cast<int>(pair_order.size()); ++pi) {
                auto [ts, tt] = pair_order[pi];
                for (Reg r : regs_of[pi])
                    problems.push_back(
                        {pi, ts, tt, false, r, nullptr});
                if (auto it = mem_idx_of.find(pair_order[pi]);
                    it != mem_idx_of.end())
                    problems.push_back(
                        {pi, ts, tt, true, kNoReg,
                         &mem_work[it->second].second});
            }
        }
        result.problems += problems.size();

        FlowGraphInputs inputs{&f,        &cd,
                               &profile,  &partition,
                               &relevant, &index,
                               opts.control_flow_penalties};

        // ---- Phase 2: apply in canonical order. A cached cut is
        // consumed only when its versions prove a fresh solve would
        // build the identical graph, otherwise it is built and solved
        // on the walk. ----
        std::vector<std::pair<RegKey, PointList>> new_reg;
        std::vector<std::pair<PairKey, PointList>> new_mem;
        std::vector<std::pair<RegKey, PlacementDecision>> new_reg_dec;
        std::vector<std::pair<PairKey, PlacementDecision>> new_mem_dec;

        // Answer problem @p p from the cache, or build and solve it
        // (one trace span per solve, on the calling pass's lane). A
        // fresh solve is cached only when @p cacheable says its
        // inputs match the versions it is tagged with.
        auto answer = [&](const CutProblem &p, bool cacheable,
                          auto &&solve) -> const CachedCut & {
            CachedCut &slot = slotFor(p);
            if (cacheable && slot.valid && slot.vts == rel_version[p.ts] &&
                slot.vtt == rel_version[p.tt]) {
                ++result.warm_starts;
                return slot;
            }
            ++result.cold_rebuilds;
            CachedCut &out = cacheable ? slot : inline_cut;
            const double t0 = exec.trace ? exec.trace->nowUs() : 0.0;
            solve(out);
            if (exec.trace)
                exec.trace->completeEvent(
                    p.is_mem ? "coco-mem-cut" : "coco-reg-cut", "coco",
                    TraceCollector::kPipelinePid,
                    exec.trace->laneForThisThread(), t0,
                    exec.trace->nowUs() - t0, {},
                    {{"ts", p.ts}, {"tt", p.tt}});
            if (cacheable) {
                slot.vts = rel_version[p.ts];
                slot.vtt = rel_version[p.tt];
                slot.valid = true;
            }
            return out;
        };

        // Decision record of problem @p i, solved as @p cut: the cut's
        // per-point breakdown when its points were taken (@p from_cut),
        // else the chosen points at their profile weight. The iteration
        // carries over from @p prev while rule and points are unchanged.
        auto decide = [&](size_t i, const CachedCut &cut, bool from_cut,
                          const PointList &points,
                          const PlacementDecision *prev) {
            const CutProblem &p = problems[i];
            PlacementDecision d;
            d.is_mem = p.is_mem;
            d.reg = p.r;
            d.src_thread = p.ts;
            d.dst_thread = p.tt;
            d.problem = static_cast<int>(i);
            if (p.is_mem)
                d.num_deps = static_cast<int>(p.deps->size());
            d.rule = from_cut ? "coco-cut" : "coco-default";
            d.cut_cost = cut.cost;
            d.graph_nodes = cut.graph_nodes;
            d.graph_arcs = cut.graph_arcs;
            if (from_cut) {
                d.points = cut.breakdown;
            } else {
                for (const auto &pt : points)
                    d.points.push_back(
                        {pt.block, pt.pos,
                         static_cast<int64_t>(profile.pointWeight(pt)),
                         0});
            }
            d.iteration = prev && prev->rule == d.rule &&
                                  prev->points == d.points
                              ? prev->iteration
                              : result.iterations;
            return d;
        };

        int cur_pair = -1;
        uint64_t pair_entry_vtt = 0;
        const ThreadLiveness *live = nullptr;

        for (size_t i = 0; i < problems.size(); ++i) {
            const CutProblem &p = problems[i];
            if (p.pair_idx != cur_pair) {
                cur_pair = p.pair_idx;
                pair_entry_vtt = rel_version[p.tt];
                // Snapshot of tt's relevant branches for liveness.
                live = &livenessFor(p.tt);
            }

            if (!p.is_mem) {
                // The solve reads relevant[ts] and relevant[tt]
                // (graph) plus the pair-entry liveness snapshot; the
                // versions tag all three only while tt has not grown
                // since pair entry.
                const CachedCut &cut = answer(
                    p, rel_version[p.tt] == pair_entry_vtt,
                    [&](CachedCut &out) {
                        solveRegCut(inputs, *safety[p.ts], *live, p.r,
                                    p.ts, p.tt, arena, out);
                    });
                GMT_ASSERT(cut.finite, "no finite register cut");
                result.register_cut_cost += cut.cost;
                const bool from_cut = !cut.points.empty();
                PointList points =
                    from_cut ? cut.points
                             : defaultRegPoints(f, pdg, partition,
                                                relevant, reg_arcs, p.ts,
                                                p.tt, p.r, needers);
                const RegKey key{p.ts, p.tt, p.r};
                new_reg_dec.push_back(
                    {key, decide(i, cut, from_cut, points,
                                 prevDec(reg_decs, key))});
                new_reg.push_back({key, points});
                for (const auto &pt : points)
                    grow(p.tt, pt);
            } else {
                // Memory graphs read no liveness, so the versions
                // always tag every input.
                const CachedCut &cut =
                    answer(p, true, [&](CachedCut &out) {
                        solveMemCut(inputs, *p.deps, p.ts, p.tt, opts,
                                    arena, out);
                    });
                GMT_ASSERT(cut.finite, "no finite memory cut");
                result.memory_cut_cost += cut.cost;
                const PairKey key{p.ts, p.tt};
                new_mem_dec.push_back(
                    {key, decide(i, cut, true, cut.points,
                                 prevDec(mem_decs, key))});
                new_mem.push_back({key, cut.points});
                for (const auto &pt : cut.points)
                    grow(p.tt, pt);
            }
        }

        // Pair order is quasi-topological, not key-sorted; restore
        // the canonical ascending-key order the old map accumulators
        // iterated in (keys are unique, so plain sort by key).
        std::sort(new_reg.begin(), new_reg.end(), byKey);
        std::sort(new_mem.begin(), new_mem.end(), byKey);
        std::sort(new_reg_dec.begin(), new_reg_dec.end(), byKey);
        std::sort(new_mem_dec.begin(), new_mem_dec.end(), byKey);
        reg_decs = std::move(new_reg_dec);
        mem_decs = std::move(new_mem_dec);

        bool converged =
            (new_reg == reg_placements) && (new_mem == mem_placements);
        reg_placements = std::move(new_reg);
        mem_placements = std::move(new_mem);
        if (converged)
            break;
    }

    // Materialize the plan in deterministic order. Decision records
    // pick up their final plan index here (or land in elided when no
    // points survived); reg_decs/mem_decs share the accumulators' key
    // sequence, so positions line up one to one.
    GMT_ASSERT(reg_decs.size() == reg_placements.size() &&
               mem_decs.size() == mem_placements.size());
    PlacementProvenance &prov = result.provenance;
    prov.source = "coco";
    prov.iterations = result.iterations;
    auto place = [&](PlacementDecision &d, CommPlacement pl) {
        if (pl.points.empty()) {
            prov.elided.push_back(std::move(d));
            return;
        }
        d.index = static_cast<int>(result.plan.placements.size());
        prov.placements.push_back(std::move(d));
        result.plan.placements.push_back(std::move(pl));
    };
    for (size_t k = 0; k < reg_placements.size(); ++k) {
        auto &[key, points] = reg_placements[k];
        auto [ts, tt, r] = key;
        place(reg_decs[k].second,
              {CommKind::RegisterData, r, ts, tt, std::move(points)});
    }
    for (size_t k = 0; k < mem_placements.size(); ++k) {
        auto &[key, points] = mem_placements[k];
        auto [ts, tt] = key;
        place(mem_decs[k].second,
              {CommKind::MemorySync, kNoReg, ts, tt, std::move(points)});
    }
    return result;
}

Placement
placeCommunication(const Function &f, const Pdg &pdg,
                   const ThreadPartition &partition,
                   const ControlDependence &cd, const EdgeProfile &profile,
                   const CocoOptions *coco, const CocoExec &exec)
{
    Placement p;
    if (coco) {
        CocoResult res =
            cocoOptimize(f, pdg, partition, cd, profile, *coco, exec);
        p.plan = std::move(res.plan);
        p.coco_iterations = res.iterations;
        p.prov = std::move(res.provenance);
        p.warm_starts = res.warm_starts;
        p.cold_rebuilds = res.cold_rebuilds;
    } else {
        p.plan = defaultMtcgPlan(f, pdg, partition, cd);
        p.prov = defaultPlanProvenance(p.plan, profile);
    }
    p.problems = validatePlan(f, pdg, partition, cd, p.plan);
    return p;
}

} // namespace gmt
