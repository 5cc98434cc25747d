/**
 * @file
 * The parallel COCO contract: speculative parallel cut solving must
 * produce a comm plan and a decision record identical to the serial
 * algorithm on every cell, the version-tagged cut cache that serial
 * and parallel runs share must fire and rest on a sound key, and the
 * nested ThreadPool submission parallel runs rely on must be
 * deadlock-free.
 */

#include <gtest/gtest.h>

#include <atomic>
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
#include "graph/max_flow.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------
// Plan identity over the full {GREMIO, DSWP} x workload matrix.
// ---------------------------------------------------------------

void
expectSamePlan(const CommPlan &serial, const CommPlan &parallel,
               const std::string &cell)
{
    ASSERT_EQ(serial.placements.size(), parallel.placements.size())
        << cell;
    for (size_t i = 0; i < serial.placements.size(); ++i) {
        const CommPlacement &a = serial.placements[i];
        const CommPlacement &b = parallel.placements[i];
        EXPECT_EQ(a.kind, b.kind) << cell << " placement " << i;
        EXPECT_EQ(a.reg, b.reg) << cell << " placement " << i;
        EXPECT_EQ(a.src_thread, b.src_thread)
            << cell << " placement " << i;
        EXPECT_EQ(a.dst_thread, b.dst_thread)
            << cell << " placement " << i;
        EXPECT_EQ(a.points, b.points) << cell << " placement " << i;
    }
}

// Serial and parallel runs share one cut-cache rule: every enumerated
// problem is answered exactly once, from the cache or by building and
// solving it, and the plan matches the serial run at any job count.
// The repeat-until loop revisits problems whose inputs did not change,
// so the cache must fire on serial runs too.
TEST(CocoParallel, PlanIdenticalAtAnyJobCount)
{
    ThreadPool pool(4);
    uint64_t serial_cache_answers = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);

            const Function &f = ctx.pdg->ir->func;
            auto solve = [&](const CocoExec &exec) {
                CocoResult r = cocoOptimize(f, ctx.pdg->pdg,
                                            ctx.partition->partition,
                                            ctx.pdg->cd,
                                            ctx.profile->profile,
                                            CocoOptions{}, exec);
                // Both problem kinds are optimized, so every
                // enumerated problem is answered.
                EXPECT_EQ(r.warm_starts + r.cold_rebuilds, r.problems)
                    << ctx.cellId() << " jobs=" << exec.jobs;
                return r;
            };
            CocoResult serial = solve(CocoExec{});
            serial_cache_answers += serial.warm_starts;
            for (int jobs : {2, 4, 8}) {
                CocoResult par = solve(CocoExec{&pool, jobs, nullptr});
                expectSamePlan(serial.plan, par.plan, ctx.cellId());
                EXPECT_EQ(serial.iterations, par.iterations)
                    << ctx.cellId();
                EXPECT_EQ(serial.problems, par.problems) << ctx.cellId();
                EXPECT_EQ(serial.register_cut_cost,
                          par.register_cut_cost)
                    << ctx.cellId();
                EXPECT_EQ(serial.memory_cut_cost, par.memory_cut_cost)
                    << ctx.cellId();
                EXPECT_EQ(serial.provenance, par.provenance)
                    << ctx.cellId() << " jobs=" << jobs;
            }
        }
    }
    EXPECT_GT(serial_cache_answers, 0u);
}

// Ablation options must not disturb the contract either.
TEST(CocoParallel, PlanIdenticalUnderAblations)
{
    ThreadPool pool(4);
    const Workload w = allWorkloads().front();
    PipelineOptions po;
    po.scheduler = Scheduler::Dswp;
    po.use_coco = true;
    PipelineContext ctx(w, po);
    PassManager::codegenPipeline().run(ctx);
    const Function &f = ctx.pdg->ir->func;

    for (bool penalties : {false, true}) {
        for (bool multi_pair : {false, true}) {
            CocoOptions opts;
            opts.control_flow_penalties = penalties;
            opts.multi_pair_memory = multi_pair;
            CocoResult serial =
                cocoOptimize(f, ctx.pdg->pdg,
                             ctx.partition->partition, ctx.pdg->cd,
                             ctx.profile->profile, opts, CocoExec{});
            for (int jobs : {2, 4, 8}) {
                CocoResult par =
                    cocoOptimize(f, ctx.pdg->pdg,
                                 ctx.partition->partition, ctx.pdg->cd,
                                 ctx.profile->profile, opts,
                                 CocoExec{&pool, jobs, nullptr});
                expectSamePlan(serial.plan, par.plan, ctx.cellId());
                EXPECT_EQ(serial.provenance, par.provenance)
                    << ctx.cellId() << " jobs=" << jobs;
            }
        }
    }
}

// The placement record a cell publishes comes from the pipeline's own
// COCO call, which here speculates in parallel. It must equal the
// record of a fresh serial run on the same inputs: the provenance pass
// publishes the cell's record as the serial algorithm's.
TEST(CocoParallel, PipelineRecordMatchesFreshSerialRun)
{
    ThreadPool pool(4);
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            po.coco_jobs = 4;
            PipelineContext ctx(w, po);
            ctx.pool = &pool;
            PassManager::codegenPipeline().run(ctx);

            CocoResult fresh = cocoOptimize(
                ctx.pdg->ir->func, ctx.pdg->pdg,
                ctx.partition->partition, ctx.pdg->cd,
                ctx.profile->profile, po.coco, CocoExec{});
            EXPECT_EQ(ctx.plan->plan, fresh.plan) << ctx.cellId();
            EXPECT_EQ(ctx.plan->prov, fresh.provenance) << ctx.cellId();
            EXPECT_EQ(ctx.plan->prov.source, "coco") << ctx.cellId();
        }
    }
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
// Nested submission on the shared pool.
// ---------------------------------------------------------------

TEST(TaskGroupNested, TwoLevelsComplete)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 4; ++i) {
        outer.run([&pool, &done] {
            TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j)
                inner.run([&done] { done.fetch_add(1); });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(done.load(), 32);
}

// Three levels on a single-worker pool: only the claim-and-run-inline
// protocol keeps this from deadlocking (the one worker is blocked in
// a nested wait() for most of the run).
TEST(TaskGroupNested, ThreeLevelsSingleWorker)
{
    ThreadPool pool(1);
    std::atomic<int> done{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 3; ++i) {
        outer.run([&pool, &done] {
            TaskGroup mid(pool);
            for (int j = 0; j < 3; ++j) {
                mid.run([&pool, &done] {
                    TaskGroup inner(pool);
                    for (int k = 0; k < 3; ++k)
                        inner.run([&done] { done.fetch_add(1); });
                    inner.wait();
                });
            }
            mid.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(done.load(), 27);
}

// Concurrent groups on one pool must not steal each other's work or
// lose completions.
TEST(TaskGroupNested, ConcurrentGroupsIndependent)
{
    ThreadPool pool(3);
    std::atomic<int> a{0}, b{0};
    TaskGroup ga(pool);
    TaskGroup gb(pool);
    for (int i = 0; i < 50; ++i) {
        ga.run([&a] { a.fetch_add(1); });
        gb.run([&b] { b.fetch_add(1); });
    }
    ga.wait();
    EXPECT_EQ(a.load(), 50);
    gb.wait();
    EXPECT_EQ(b.load(), 50);
}

// An empty group's wait() must return immediately.
TEST(TaskGroupNested, EmptyGroup)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.wait();
    group.run([] {});
    group.wait();
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
