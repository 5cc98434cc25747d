/**
 * @file
 * COCO's cut walk: the version-tagged cut cache answers every
 * enumerated problem exactly once and rests on a sound key, the
 * pipeline's placement record equals a direct cocoOptimize call, a
 * traced run shows one span per cut the walk solves, register cut
 * graphs over a register's live blocks match the whole-function
 * definition, and the solver's reused network arena behaves like
 * fresh networks.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "coco/coco.hpp"
#include "coco/flow_graph.hpp"
#include "coco/relevant.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "driver/pass_manager.hpp"
#include "driver/experiment.hpp"
#include "graph/max_flow.hpp"
#include "obs/trace_writer.hpp"
#include "support/rng.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------
// The cut cache over the fig7 matrix.
// ---------------------------------------------------------------

// Every enumerated problem is answered exactly once, from the cache or
// by building and solving it, and the repeat-until loop revisits
// problems whose inputs did not change, so the cache fires. The plan
// and decision record a cell publishes come from the pipeline's own
// COCO call and must equal a direct call on the same inputs. Both
// ablation switches vary, as extra inputs to every cell.
TEST(CocoCutCache, AnswersEveryProblemOnce)
{
    uint64_t cache_answers = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            for (bool penalties : {true, false}) {
                for (bool multi_pair : {true, false}) {
                    PipelineOptions po;
                    po.scheduler = sched;
                    po.use_coco = true;
                    po.coco.control_flow_penalties = penalties;
                    po.coco.multi_pair_memory = multi_pair;
                    PipelineContext ctx(w, po);
                    PassManager::codegenPipeline().run(ctx);
                    const std::string what =
                        ctx.cellId() + " penalties=" +
                        std::to_string(penalties) +
                        " multi_pair=" + std::to_string(multi_pair);

                    CocoResult r = cocoOptimize(
                        ctx.pdg->ir->func, ctx.pdg->pdg,
                        ctx.partition->partition, ctx.pdg->cd,
                        ctx.profile->profile, po.coco);
                    EXPECT_EQ(r.warm_starts + r.cold_rebuilds,
                              r.problems)
                        << what;
                    cache_answers += r.warm_starts;
                    EXPECT_EQ(ctx.plan->plan, r.plan) << what;
                    EXPECT_EQ(ctx.plan->prov, r.provenance) << what;
                    EXPECT_EQ(ctx.plan->prov.source, "coco") << what;
                }
            }
        }
    }
    EXPECT_GT(cache_answers, 0u);
}

// A traced run carries one coco-reg-cut or coco-mem-cut span per cut
// the walk builds and solves (the placement records' cold rebuilds),
// and none for a cut-cache answer.
TEST(CocoTrace, OneSpanPerSolvedCut)
{
    std::vector<ExperimentCell> cells;
    for (const Workload &w : allWorkloads()) {
        if (w.name != "adpcmdec")
            continue;
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            po.simulate = false;
            cells.push_back({w, po});
        }
    }
    ASSERT_EQ(cells.size(), 2u);
    TraceCollector trace;
    ExperimentOptions eo;
    eo.jobs = 1;
    eo.trace = &trace;
    ExperimentRunner runner(eo);
    runner.runAll(cells);

    int64_t solves = 0, cache_answers = 0;
    for (const auto &records : runner.passStats()) {
        for (const PassStats &ps : records) {
            if (ps.pass != "placement")
                continue;
            solves += ps.value("coco_cold_rebuilds");
            cache_answers += ps.value("coco_warm_starts");
        }
    }
    EXPECT_GT(solves, 0);
    EXPECT_GT(cache_answers, 0);

    const std::string json = trace.json();
    auto count = [&](const std::string &needle) {
        int64_t n = 0;
        for (size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    const int64_t reg_spans = count("\"name\":\"coco-reg-cut\"");
    const int64_t mem_spans = count("\"name\":\"coco-mem-cut\"");
    EXPECT_GT(reg_spans, 0);
    EXPECT_EQ(reg_spans + mem_spans, solves);
}

// ---------------------------------------------------------------
// The premise of the cut cache's version key.
// ---------------------------------------------------------------

void
expectSameGraph(const FlowGraph &a, const FlowGraph &b,
                const std::string &what)
{
    ASSERT_EQ(a.trivial, b.trivial) << what;
    ASSERT_EQ(a.net.numNodes(), b.net.numNodes()) << what;
    ASSERT_EQ(a.net.numArcs(), b.net.numArcs()) << what;
    EXPECT_EQ(a.source, b.source) << what;
    EXPECT_EQ(a.sink, b.sink) << what;
    EXPECT_EQ(a.pairs, b.pairs) << what;
    EXPECT_EQ(a.arc_points, b.arc_points) << what;
    for (int arc = 0; arc < a.net.numArcs(); ++arc) {
        ASSERT_EQ(a.net.arcTail(arc), b.net.arcTail(arc)) << what;
        ASSERT_EQ(a.net.arcHead(arc), b.net.arcHead(arc)) << what;
        ASSERT_EQ(a.net.arcCapacity(arc), b.net.arcCapacity(arc))
            << what;
    }
}

// The premise of the version key: a (ts, tt) problem's flow graph
// reads only relevant[ts], relevant[tt] and tt's liveness, so growing
// a third thread's relevant set must leave both graph kinds
// unchanged (same arcs, capacities and arc points).
TEST(CocoCutCache, GraphsIgnoreAThirdThreadsRelevantSet)
{
    int reg_checked = 0, mem_checked = 0;
    for (const Workload &w : allWorkloads()) {
        PipelineOptions po;
        po.scheduler = Scheduler::Gremio;
        po.use_coco = true;
        po.num_threads = 3;
        PipelineContext ctx(w, po);
        PassManager::codegenPipeline().run(ctx);
        const Function &f = ctx.pdg->ir->func;
        const ControlDependence &cd = ctx.pdg->cd;
        const ThreadPartition &part = ctx.partition->partition;
        ASSERT_EQ(part.num_threads, 3);
        const CutGraphIndex index(f, cd);

        // One register problem and the memory problem per ordered
        // thread pair, taken from the PDG's cross-thread arcs.
        std::map<std::pair<int, int>, Reg> reg_of;
        std::map<std::pair<int, int>,
                 std::vector<std::pair<InstrId, InstrId>>>
            deps_of;
        for (const auto &arc : ctx.pdg->pdg.arcs()) {
            int ts = part.threadOf(arc.src);
            int tt = part.threadOf(arc.dst);
            if (ts == tt)
                continue;
            if (arc.kind == DepKind::Register)
                reg_of.emplace(std::make_pair(ts, tt), arc.reg);
            else if (arc.kind == DepKind::Memory)
                deps_of[{ts, tt}].push_back({arc.src, arc.dst});
        }

        for (int ts = 0; ts < 3; ++ts) {
            for (int tt = 0; tt < 3; ++tt) {
                if (ts == tt)
                    continue;
                const int tx = 3 - ts - tt;
                auto reg = reg_of.find({ts, tt});
                auto deps = deps_of.find({ts, tt});
                if (reg == reg_of.end() && deps == deps_of.end())
                    continue;
                const std::string what = ctx.cellId() + " ts=" +
                                         std::to_string(ts) +
                                         " tt=" + std::to_string(tt);

                std::vector<BitVector> relevant =
                    initRelevantBranches(f, cd, part);
                FlowGraphInputs in{&f,   &cd,       &ctx.profile->profile,
                                   &part, &relevant, &index,  true};
                SafetyAnalysis safety(f, part, ts);
                FlowGraphScratch scratch;
                auto build = [&](FlowGraph &reg_fg, FlowGraph &mem_fg) {
                    if (reg != reg_of.end()) {
                        ThreadLiveness live(f, part, tt, relevant[tt]);
                        buildRegisterFlowGraph(in, safety, live,
                                               reg->second, ts, tt,
                                               reg_fg, scratch);
                    }
                    if (deps != deps_of.end())
                        buildMemoryFlowGraph(in, deps->second, ts, tt,
                                             mem_fg, scratch);
                };
                FlowGraph reg_before, mem_before;
                build(reg_before, mem_before);

                // Grow tx's relevant set as far as it goes.
                const size_t had = relevant[tx].count();
                relevant[tx].setAll();
                ASSERT_GT(relevant[tx].count(), had) << what;

                FlowGraph reg_after, mem_after;
                build(reg_after, mem_after);
                if (reg != reg_of.end()) {
                    expectSameGraph(reg_before, reg_after,
                                    what + " reg");
                    reg_checked += reg_before.trivial ? 0 : 1;
                }
                if (deps != deps_of.end()) {
                    expectSameGraph(mem_before, mem_after,
                                    what + " mem");
                    ++mem_checked;
                }
            }
        }
    }
    EXPECT_GT(reg_checked, 0);
    EXPECT_GT(mem_checked, 0);
}
// ---------------------------------------------------------------
// Register cut graphs over a register's live blocks.
// ---------------------------------------------------------------

/**
 * G_f for register @p r by its whole-function definition: per-point
 * liveness and safety over every block, then nodes, chain arcs,
 * inter-block arcs and special arcs, each a walk over all blocks.
 */
FlowGraph
wholeFunctionRegisterGraph(const FlowGraphInputs &in,
                           const SafetyAnalysis &safety,
                           const ThreadLiveness &live, Reg r, int ts,
                           int tt)
{
    const Function &f = *in.f;
    const int nb = f.numBlocks();
    std::vector<std::vector<char>> point_live(nb), point_safe(nb);
    for (BlockId b = 0; b < nb; ++b) {
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
                for (Reg use : f.usesOf(i))
                    l = l || use == r;
            }
            point_live[b][pos] = l;
        }
        point_safe[b].assign(instrs.size() + 1, 0);
        bool safe = safety.safeIn(b).test(r);
        point_safe[b][0] = safe;
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            bool mine = in.partition->threadOf(i) == ts;
            if (f.defOf(i) == r)
                safe = mine;
            if (mine) {
                for (Reg use : f.usesOf(i))
                    safe = safe || use == r;
            }
            point_safe[b][pos + 1] = safe;
        }
    }

    FlowGraph out;
    FlowNetwork &net = out.net;
    std::vector<int> entry_node(nb, -1);
    std::vector<std::vector<int>> instr_node(nb);
    for (BlockId b = 0; b < nb; ++b) {
        const size_t n = f.block(b).size();
        instr_node[b].assign(n, -1);
        if (point_live[b][0])
            entry_node[b] = net.addNode();
        for (size_t pos = 0; pos < n; ++pos) {
            if (point_live[b][pos] || point_live[b][pos + 1])
                instr_node[b][pos] = net.addNode();
        }
    }
    out.source = net.addNode();
    out.sink = net.addNode();

    auto pointCost = [&](BlockId b, int pos, Capacity base) -> Capacity {
        if (!point_safe[b][pos] ||
            !isRelevantPoint(*in.cd, (*in.relevant)[ts], b))
            return kInfCapacity;
        Capacity pen = 0;
        if (in.penalties) {
            for (BlockId br : in.cd->transitiveDeps(b)) {
                if (!(*in.relevant)[tt].test(br))
                    pen += static_cast<Capacity>(
                        in.profile->blockWeight(br));
            }
        }
        return base + pen;
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p) {
        net.addArc(u, v, cost);
        out.arc_points.push_back(p);
    };
    for (BlockId b = 0; b < nb; ++b) {
        const int n = static_cast<int>(f.block(b).size());
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[b] != -1 && n > 0 && instr_node[b][0] != -1)
            addArc(entry_node[b], instr_node[b][0], pointCost(b, 0, bw),
                   {b, 0});
        for (int pos = 0; pos + 1 < n; ++pos) {
            if (instr_node[b][pos] != -1 &&
                instr_node[b][pos + 1] != -1 && point_live[b][pos + 1])
                addArc(instr_node[b][pos], instr_node[b][pos + 1],
                       pointCost(b, pos + 1, bw), {b, pos + 1});
        }
    }
    for (BlockId b = 0; b < nb; ++b) {
        const int last = static_cast<int>(f.block(b).size()) - 1;
        if (last < 0 || instr_node[b][last] == -1)
            continue;
        const auto &succs = f.block(b).succs();
        for (size_t k = 0; k < succs.size(); ++k) {
            BlockId s = succs[k];
            if (entry_node[s] == -1)
                continue;
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(k)));
            if (succs.size() > 1)
                addArc(instr_node[b][last], entry_node[s],
                       pointCost(s, 0, ew), {s, 0});
            else
                addArc(instr_node[b][last], entry_node[s],
                       pointCost(b, last, ew), {b, last});
        }
    }
    bool have_source = false, have_sink = false;
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            if (instr_node[b][pos] == -1)
                continue;
            if (f.defOf(i) == r && in.partition->threadOf(i) == ts &&
                point_live[b][pos + 1]) {
                addArc(out.source, instr_node[b][pos], kInfCapacity,
                       {kNoBlock, -1});
                have_source = true;
            }
            auto uses = f.usesOf(i);
            if (live.usesCount(i) &&
                std::find(uses.begin(), uses.end(), r) != uses.end()) {
                addArc(instr_node[b][pos], out.sink, kInfCapacity,
                       {kNoBlock, -1});
                have_sink = true;
            }
        }
    }
    out.trivial = !have_source || !have_sink;
    return out;
}

// buildRegisterFlowGraph walks only the blocks r is live out of or
// that define or use r; the graph must equal the whole-function one
// on every register problem (ts, tt, r) of the Fig. 7 COCO cells
// (GREMIO and DSWP, penalties on and off) and of generated cells,
// under the initial relevant-branch sets and under full ones.
TEST(CocoFlowGraph, LiveBlocksMatchWholeFunctionWalk)
{
    std::vector<Workload> cells = allWorkloads();
    for (uint64_t seed = 1; seed <= 12; ++seed)
        cells.push_back(generateWorkload(seed));
    int problems = 0, nontrivial = 0;
    for (const Workload &w : cells) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            const Function &f = ctx.pdg->ir->func;
            const ControlDependence &cd = ctx.pdg->cd;
            const ThreadPartition &part = ctx.partition->partition;
            const CutGraphIndex index(f, cd);
            FlowGraphScratch scratch;

            for (bool full_relevant : {false, true}) {
                std::vector<BitVector> relevant =
                    initRelevantBranches(f, cd, part);
                if (full_relevant)
                    for (auto &set : relevant)
                        set.setAll();
                std::set<std::tuple<int, int, Reg>> keys;
                for (const PdgArc &arc : ctx.pdg->pdg.arcs()) {
                    if (arc.kind != DepKind::Register)
                        continue;
                    const int ts = part.threadOf(arc.src);
                    const Instr &use = f.instr(arc.dst);
                    for (int tt = 0; tt < part.num_threads; ++tt) {
                        if (tt != ts &&
                            (tt == part.threadOf(arc.dst) ||
                             (use.isBranch() &&
                              relevant[tt].test(use.block))))
                            keys.insert({ts, tt, arc.reg});
                    }
                }
                std::vector<std::unique_ptr<SafetyAnalysis>> safety;
                std::vector<std::unique_ptr<ThreadLiveness>> live;
                for (int t = 0; t < part.num_threads; ++t) {
                    safety.push_back(
                        std::make_unique<SafetyAnalysis>(f, part, t));
                    live.push_back(std::make_unique<ThreadLiveness>(
                        f, part, t, relevant[t]));
                }
                for (bool penalties : {true, false}) {
                    FlowGraphInputs in{&f,    &cd,       &ctx.profile->profile,
                                       &part, &relevant, &index,
                                       penalties};
                    for (const auto &[ts, tt, r] : keys) {
                        const std::string what =
                            ctx.cellId() + " ts=" + std::to_string(ts) +
                            " tt=" + std::to_string(tt) + " r" +
                            std::to_string(r) +
                            (full_relevant ? " full" : " init") +
                            (penalties ? " pen" : " nopen");
                        FlowGraph got;
                        buildRegisterFlowGraph(in, *safety[ts], *live[tt],
                                               r, ts, tt, got, scratch);
                        FlowGraph want = wholeFunctionRegisterGraph(
                            in, *safety[ts], *live[tt], r, ts, tt);
                        expectSameGraph(want, got, what);
                        ++problems;
                        nontrivial += got.trivial ? 0 : 1;
                    }
                }
            }
        }
    }
    EXPECT_GT(problems, 2000);
    EXPECT_GT(nontrivial, 2000);
}

// ---------------------------------------------------------------
// Network arena reuse: reset + attach must behave like fresh builds.
// ---------------------------------------------------------------

TEST(FlowNetworkReuse, ResetMatchesFreshNetwork)
{
    Rng rng(424242);
    FlowNetwork arena(0);
    MaxFlow mf;
    for (int trial = 0; trial < 40; ++trial) {
        int n = 3 + static_cast<int>(rng.nextBelow(12));
        arena.reset(n);
        FlowNetwork fresh(n);
        for (int e = 0; e < 2 * n; ++e) {
            int u = static_cast<int>(rng.nextBelow(n));
            int v = static_cast<int>(rng.nextBelow(n));
            if (u == v)
                continue;
            Capacity cap =
                static_cast<Capacity>(1 + rng.nextBelow(30));
            arena.addArc(u, v, cap);
            fresh.addArc(u, v, cap);
        }
        mf.attach(arena);
        MaxFlow ref(fresh);
        Capacity got = mf.solve(0, n - 1);
        ASSERT_EQ(got, ref.solve(0, n - 1)) << "trial " << trial;
        EXPECT_EQ(mf.minCutArcs(), ref.minCutArcs())
            << "trial " << trial;
    }
}

TEST(FlowNetworkReuse, AddNodeReusesDirtySlots)
{
    FlowNetwork net(2);
    net.addArc(0, 1, 5);
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 5);

    net.reset(2);
    int extra = net.addNode();
    EXPECT_EQ(extra, 2);
    net.addArc(0, extra, 3);
    net.addArc(extra, 1, 3);
    mf.attach(net);
    EXPECT_EQ(mf.solve(0, 1), 3);
}

} // namespace
} // namespace gmt
