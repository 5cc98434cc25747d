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
#include <string>
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
                                   &part, &relevant, nullptr, true};
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
