#include <gtest/gtest.h>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "coco/coco.hpp"
#include "coco/validate.hpp"
#include "equiv.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "pdg/pdg_builder.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

struct PipelineState
{
    // Heap-allocated: Pdg and ControlDependence reference the
    // Function, so its address must be stable.
    std::unique_ptr<Function> func;
    std::unique_ptr<Pdg> pdg_ptr;
    std::unique_ptr<ControlDependence> cd;
    EdgeProfile profile;

    Function &f;
    Pdg &pdg;
};

PipelineState
prepare(Function fin, const std::vector<int64_t> &train_args,
        int64_t mem_cells)
{
    auto func = std::make_unique<Function>(std::move(fin));
    Function &f = *func;
    splitCriticalEdges(f);
    verifyOrDie(f);
    MemoryImage mem;
    mem.alloc(mem_cells);
    auto run = interpret(f, train_args, mem);
    auto profile = EdgeProfile::fromRun(f, run.profile);
    auto pdg = std::make_unique<Pdg>(buildPdg(f));
    auto pdom = DominatorTree::postDominators(f);
    auto cd = std::make_unique<ControlDependence>(f, pdom);
    Function &fr = *func;
    Pdg &pr = *pdg;
    return {std::move(func), std::move(pdg), std::move(cd),
            std::move(profile), fr, pr};
}

/** Paper Figure 4: two sequential loops, single live-out register. */
Function
buildFigure4(Reg *out_r1)
{
    FunctionBuilder b("fig4");
    Reg n = b.param();
    BlockId l1 = b.newBlock("B2");   // loop 1 body (entry)
    BlockId pre2 = b.newBlock("B3"); // between the loops
    BlockId l2 = b.newBlock("B4");   // loop 2 body
    BlockId done = b.newBlock("B5");

    b.setBlock(l1);
    Reg i = b.func().newReg();
    Reg r1 = b.func().newReg();
    b.addInto(r1, r1, i);  // B: r1 = f(i, r1)
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c1 = b.cmpLt(i, n);
    b.br(c1, l1, pre2);    // C

    b.setBlock(pre2);
    Reg j = b.constI(0);   // D
    b.jmp(l2);

    b.setBlock(l2);
    Reg acc = b.func().newReg();
    b.addInto(acc, acc, r1); // E: consumes r1
    Reg one2 = b.constI(1);  // loop 2's own constant: r1 must be the
    Reg m = b.mov(n);        // only cross-thread register (n is a
    b.addInto(j, j, one2);   // param, broadcast at spawn)
    Reg c2 = b.cmpLt(j, m);
    b.br(c2, l2, done);      // F

    b.setBlock(done);
    b.ret({acc});            // G
    *out_r1 = r1;
    return b.finish();
}

ThreadPartition
figure4Partition(const Function &f)
{
    // T_s = loop 1, T_t = everything from B3 on (paper's split).
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        // Blocks 1,2,3 are pre2, l2, done in creation order.
        if (f.instr(i).block != 0)
            p.assign[i] = 1;
    }
    return p;
}

TEST(CocoFigure4, MovesCommunicationOutOfLoop)
{
    Reg r1 = kNoReg;
    auto st = prepare(buildFigure4(&r1), {10}, 0);
    auto partition = figure4Partition(st.f);

    auto coco = cocoOptimize(st.f, st.pdg, partition, *st.cd,
                             st.profile);
    EXPECT_TRUE(
        validatePlan(st.f, st.pdg, partition, *st.cd, coco.plan)
            .empty());

    // The r1 placement must be a single point outside loop 1 (the
    // paper's "drastically reduces ... from 10 down to 1").
    const CommPlacement *r1_pl = nullptr;
    for (const auto &pl : coco.plan.placements) {
        if (pl.kind == CommKind::RegisterData && pl.reg == r1)
            r1_pl = &pl;
    }
    ASSERT_NE(r1_pl, nullptr);
    ASSERT_EQ(r1_pl->points.size(), 1u);
    EXPECT_EQ(st.profile.pointWeight(r1_pl->points[0]), 1u);

    // Runtime confirmation: one produce total, and the target thread
    // no longer replicates loop 1's branch.
    MtProgram prog = runMtcg(st.f, st.pdg, partition, coco.plan,
                             *st.cd);
    auto out = checkEquivalence(st.f, prog, {10}, 0, nullptr,
                                SchedulePolicy::RoundRobin, 0);
    ASSERT_TRUE(out.ok) << out.detail;
    uint64_t produces = 0;
    for (const auto &s : out.mt.stats)
        produces += s.produces;
    EXPECT_EQ(produces, 1u);
    EXPECT_EQ(out.mt.stats[1].duplicated_branches, 0u);

    // Default MTCG baseline: one produce per loop-1 iteration plus
    // the replicated loop branch in the target thread.
    CommPlan def = defaultMtcgPlan(st.f, st.pdg, partition, *st.cd);
    MtProgram base = runMtcg(st.f, st.pdg, partition, def, *st.cd);
    auto base_out = checkEquivalence(st.f, base, {10}, 0, nullptr,
                                     SchedulePolicy::RoundRobin, 0);
    ASSERT_TRUE(base_out.ok) << base_out.detail;
    EXPECT_GE(base_out.mt.totalCommunication(),
              10 * 2u); // >= 10 produce/consume pairs
    EXPECT_GT(base_out.mt.stats[1].duplicated_branches, 0u);
    EXPECT_LT(out.mt.totalCommunication(),
              base_out.mt.totalCommunication());
}

/**
 * Paper Figure 5 (register part): r1 defined in both arms of a
 * hammock (blocks B3 weight 3, B4 weight 5), merged in B6 (weight 8),
 * used and then redefined by the target thread in B7. Without
 * penalties the cuts {B3,B4} and {B6} tie at cost 8; the control-flow
 * penalty (branch B weight 8 irrelevant to T_t) must pick B6.
 */
struct Fig5
{
    Function f{"fig5"};
    Reg r1 = kNoReg, rb = kNoReg;
    BlockId b3 = kNoBlock, b4 = kNoBlock, b6 = kNoBlock,
            b7 = kNoBlock;
};

Fig5
buildFigure5()
{
    Fig5 fig;
    FunctionBuilder b("fig5");
    Reg sel = b.param();   // branch operand source
    Reg x = b.param();
    BlockId b2 = b.newBlock("B2");
    BlockId b3 = b.newBlock("B3");
    BlockId b4 = b.newBlock("B4");
    BlockId b6 = b.newBlock("B6");
    BlockId b7 = b.newBlock("B7");

    b.setBlock(b2);
    Reg r1 = b.func().newReg();
    Reg rb = b.mov(sel); // A
    b.br(rb, b3, b4);    // B

    b.setBlock(b3);
    Reg c1 = b.constI(1);
    b.addInto(r1, x, c1); // C: r1 = x + 1
    b.jmp(b6);

    b.setBlock(b4);
    Reg c2 = b.constI(2);
    b.addInto(r1, x, c2); // E: r1 = x + 2
    b.jmp(b6);

    b.setBlock(b6);
    Reg g = b.addImm(x, 7); // G (source-thread work in B6)
    b.jmp(b7);

    b.setBlock(b7);
    Reg use = b.addImm(r1, 1); // H (target): uses r1
    b.constInto(r1, 0);        // F (target): redefines r1
    Reg res = b.add(use, g);
    b.ret({res});

    fig.f = b.finish();
    fig.r1 = r1;
    fig.rb = rb;
    fig.b3 = b3;
    fig.b4 = b4;
    fig.b6 = b6;
    fig.b7 = b7;
    return fig;
}

TEST(CocoFigure5, PenaltiesAvoidMakingBranchRelevant)
{
    Fig5 fig = buildFigure5();
    splitCriticalEdges(fig.f);
    verifyOrDie(fig.f);

    // Synthetic profile matching the paper's weights: run the branch
    // 8 times, 3 taken / 5 not taken.
    MemoryImage mem;
    ProfileData prof_data;
    prof_data.block_counts.assign(fig.f.numBlocks(), 0);
    prof_data.edge_counts.resize(fig.f.numBlocks());
    for (BlockId blk = 0; blk < fig.f.numBlocks(); ++blk) {
        prof_data.edge_counts[blk].assign(
            fig.f.block(blk).succs().size(), 0);
    }
    // All blocks execute 8 times except the arms (3 and 5).
    for (BlockId blk = 0; blk < fig.f.numBlocks(); ++blk)
        prof_data.block_counts[blk] = 8;
    prof_data.block_counts[fig.b3] = 3;
    prof_data.block_counts[fig.b4] = 5;
    prof_data.edge_counts[0][0] = 3; // B2 -> B3
    prof_data.edge_counts[0][1] = 5; // B2 -> B4
    prof_data.edge_counts[fig.b3][0] = 3;
    prof_data.edge_counts[fig.b4][0] = 5;
    prof_data.edge_counts[fig.b6][0] = 8;
    auto profile = EdgeProfile::fromRun(fig.f, prof_data);

    Pdg pdg = buildPdg(fig.f);
    auto pdom = DominatorTree::postDominators(fig.f);
    ControlDependence cd(fig.f, pdom);

    // T_s owns everything up to and including B6; T_t owns B7.
    ThreadPartition partition;
    partition.num_threads = 2;
    partition.assign.assign(fig.f.numInstrs(), 0);
    for (InstrId i : fig.f.block(fig.b7).instrs())
        partition.assign[i] = 1;

    auto with_pen = cocoOptimize(fig.f, pdg, partition, cd, profile,
                                 {.control_flow_penalties = true});
    EXPECT_TRUE(
        validatePlan(fig.f, pdg, partition, cd, with_pen.plan).empty());

    // r1's placement must sit in B6 (or later before B7's use), not
    // in the arms — so no point may be control dependent on branch B.
    bool found = false;
    for (const auto &pl : with_pen.plan.placements) {
        if (pl.kind != CommKind::RegisterData || pl.reg != fig.r1)
            continue;
        found = true;
        for (const auto &p : pl.points) {
            EXPECT_NE(p.block, fig.b3);
            EXPECT_NE(p.block, fig.b4);
            EXPECT_TRUE(cd.dependsOn(p.block).empty())
                << "point in conditionally-executed block "
                << fig.f.block(p.block).label();
        }
    }
    EXPECT_TRUE(found);

    // Runtime: the target thread must not replicate branch B.
    MtProgram prog =
        runMtcg(fig.f, pdg, partition, with_pen.plan, cd);
    for (int64_t sel : {0, 1}) {
        auto out = checkEquivalence(fig.f, prog, {sel, 10}, 0, nullptr,
                                    SchedulePolicy::RoundRobin, 0);
        ASSERT_TRUE(out.ok) << out.detail;
        EXPECT_EQ(out.mt.stats[1].duplicated_branches, 0u);
    }
}

TEST(CocoMemory, SharedSyncAcrossDisjointDeps)
{
    // T_s stores to two disjoint alias classes; T_t loads both later.
    // The multi-pair cut shares one synchronization point; default
    // MTCG inserts one sync per store.
    FunctionBuilder b("memshare");
    Reg a = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v1 = b.constI(11);
    Reg v2 = b.constI(22);
    b.store(a, 0, v1, 1); // class 1
    b.store(a, 1, v2, 2); // class 2
    Reg l1 = b.load(a, 0, 1);
    Reg l2 = b.load(a, 1, 2);
    Reg s = b.add(l1, l2);
    b.ret({s});
    auto st = prepare(b.finish(), {0}, 4);

    ThreadPartition partition;
    partition.num_threads = 2;
    partition.assign.assign(st.f.numInstrs(), 0);
    // Loads and everything after belong to T_t.
    const auto &ins = st.f.block(0).instrs();
    for (size_t k = 4; k < ins.size(); ++k)
        partition.assign[ins[k]] = 1;

    auto coco = cocoOptimize(st.f, st.pdg, partition, *st.cd,
                             st.profile);
    EXPECT_TRUE(
        validatePlan(st.f, st.pdg, partition, *st.cd, coco.plan)
            .empty());

    // One memory placement with one shared point.
    int mem_placements = 0;
    size_t mem_points = 0;
    for (const auto &pl : coco.plan.placements) {
        if (pl.kind == CommKind::MemorySync) {
            ++mem_placements;
            mem_points += pl.points.size();
        }
    }
    EXPECT_EQ(mem_placements, 1);
    EXPECT_EQ(mem_points, 1u);

    MtProgram prog =
        runMtcg(st.f, st.pdg, partition, coco.plan, *st.cd);
    auto out = checkEquivalence(st.f, prog, {0}, 4, nullptr,
                                SchedulePolicy::Random, 7);
    ASSERT_TRUE(out.ok) << out.detail;
    uint64_t syncs = 0;
    for (const auto &s2 : out.mt.stats)
        syncs += s2.produce_syncs;
    EXPECT_EQ(syncs, 1u);

    // Default MTCG: one sync per (source, target-thread).
    CommPlan def = defaultMtcgPlan(st.f, st.pdg, partition, *st.cd);
    MtProgram base = runMtcg(st.f, st.pdg, partition, def, *st.cd);
    auto bout = checkEquivalence(st.f, base, {0}, 4, nullptr,
                                 SchedulePolicy::Random, 7);
    ASSERT_TRUE(bout.ok) << bout.detail;
    uint64_t base_syncs = 0;
    for (const auto &s2 : bout.mt.stats)
        base_syncs += s2.produce_syncs;
    EXPECT_EQ(base_syncs, 2u);
}

TEST(Coco, ConvergesWithinIterationBudget)
{
    Rng rng(515);
    for (int trial = 0; trial < 10; ++trial) {
        auto gen = generateProgram(rng);
        auto st = prepare(std::move(gen.func), {4, 9},
                          gen.array_cells);
        auto partition =
            gremioPartition(st.pdg, st.profile, {.num_threads = 2});
        auto coco = cocoOptimize(st.f, st.pdg, partition, *st.cd,
                                 st.profile, {});
        EXPECT_LT(coco.iterations, 16);
    }
}

// The central COCO properties, on random programs x partitions:
//  (1) the plan passes the independent validator;
//  (2) generated code is observationally equivalent to ST for many
//      schedules and queue capacities;
//  (3) dynamic communication never exceeds default MTCG when the
//      evaluation input matches the profiled input (paper: "COCO
//      never resulted in an increase").
class CocoProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CocoProperty, ValidEquivalentAndNeverWorse)
{
    const int num_threads = GetParam();
    Rng rng(24000 + num_threads);
    for (int trial = 0; trial < 20; ++trial) {
        auto gen = generateProgram(rng);
        std::vector<int64_t> args{rng.nextRange(-15, 15),
                                  rng.nextRange(-15, 15)};
        auto st = prepare(std::move(gen.func), args, gen.array_cells);

        ThreadPartition partition;
        partition.num_threads = num_threads;
        partition.assign.resize(st.f.numInstrs());
        for (auto &x : partition.assign)
            x = static_cast<int>(rng.nextBelow(num_threads));

        auto coco = cocoOptimize(st.f, st.pdg, partition, *st.cd,
                                 st.profile);
        auto problems =
            validatePlan(st.f, st.pdg, partition, *st.cd, coco.plan);
        ASSERT_TRUE(problems.empty())
            << "trial " << trial << ": " << problems[0] << "\n"
            << functionToString(st.f);

        MtProgram prog = runMtcg(st.f, st.pdg, partition, coco.plan,
                                 *st.cd, {.queue_capacity = 1});
        CommPlan def =
            defaultMtcgPlan(st.f, st.pdg, partition, *st.cd);
        MtProgram base =
            runMtcg(st.f, st.pdg, partition, def, *st.cd,
                    {.queue_capacity = 1});

        // Same-input comparison (profile == evaluation input).
        auto coco_run = checkEquivalence(st.f, prog, args,
                                         gen.array_cells, nullptr,
                                         SchedulePolicy::RoundRobin, 0);
        ASSERT_TRUE(coco_run.ok)
            << coco_run.detail << " trial=" << trial << "\n"
            << functionToString(st.f);
        auto base_run = checkEquivalence(st.f, base, args,
                                         gen.array_cells, nullptr,
                                         SchedulePolicy::RoundRobin, 0);
        ASSERT_TRUE(base_run.ok) << base_run.detail;
        ASSERT_LE(coco_run.mt.totalCommunication(),
                  base_run.mt.totalCommunication())
            << "COCO increased communication, trial " << trial;

        // Different inputs + random schedules: equivalence only.
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            std::vector<int64_t> other{rng.nextRange(-15, 15),
                                       rng.nextRange(-15, 15)};
            auto out = checkEquivalence(st.f, prog, other,
                                        gen.array_cells, nullptr,
                                        SchedulePolicy::Random, seed);
            ASSERT_TRUE(out.ok)
                << out.detail << " trial=" << trial << " seed=" << seed
                << "\n" << functionToString(st.f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, CocoProperty, ::testing::Values(2, 3),
                         [](const auto &info) {
                             return "t" + std::to_string(info.param);
                         });

TEST(CocoEndToEnd, DswpAndGremioPartitions)
{
    Rng rng(717171);
    for (int trial = 0; trial < 10; ++trial) {
        auto gen = generateProgram(rng);
        auto st =
            prepare(std::move(gen.func), {6, -2}, gen.array_cells);
        for (bool use_dswp : {true, false}) {
            ThreadPartition partition =
                use_dswp
                    ? dswpPartition(st.pdg, st.profile,
                                    {.num_threads = 2})
                    : gremioPartition(st.pdg, st.profile,
                                      {.num_threads = 2});
            auto coco = cocoOptimize(st.f, st.pdg, partition, *st.cd,
                                     st.profile);
            ASSERT_TRUE(validatePlan(st.f, st.pdg, partition, *st.cd,
                                     coco.plan)
                            .empty());
            MtProgram prog = runMtcg(st.f, st.pdg, partition,
                                     coco.plan, *st.cd);
            auto out = checkEquivalence(st.f, prog, {6, -2},
                                        gen.array_cells, nullptr,
                                        SchedulePolicy::Random, trial);
            ASSERT_TRUE(out.ok) << out.detail << " dswp=" << use_dswp;
        }
    }
}

} // namespace
} // namespace gmt
