#include <gtest/gtest.h>

#include <set>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "equiv.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "mtcg/queue_alloc.hpp"
#include "pdg/pdg_builder.hpp"
#include "support/error.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

CommPlan
makePlan(int placements, int num_threads)
{
    CommPlan plan;
    for (int i = 0; i < placements; ++i) {
        CommPlacement pl;
        pl.kind = CommKind::RegisterData;
        pl.reg = i;
        pl.src_thread = i % num_threads;
        pl.dst_thread = (i + 1) % num_threads;
        pl.points = {{0, 0}};
        plan.placements.push_back(pl);
    }
    return plan;
}

TEST(QueueAlloc, IdentityWhenBudgetAmple)
{
    CommPlan plan = makePlan(6, 2);
    auto alloc = allocateQueues(plan, 64);
    EXPECT_LE(alloc.num_queues, 64);
    // Each placement got a queue; queues of one pair are distinct
    // when the budget allows it.
    for (int q : alloc.queue_of)
        EXPECT_GE(q, 0);
}

TEST(QueueAlloc, SharesWithinPairsWhenTight)
{
    CommPlan plan = makePlan(20, 2); // pairs (0->1) and (1->0)
    auto alloc = allocateQueues(plan, 4);
    EXPECT_LE(alloc.num_queues, 4);
    // Placements of different ordered pairs never share a queue.
    std::set<int> q01, q10;
    for (size_t i = 0; i < plan.placements.size(); ++i) {
        if (plan.placements[i].src_thread == 0)
            q01.insert(alloc.queue_of[i]);
        else
            q10.insert(alloc.queue_of[i]);
    }
    for (int q : q01)
        EXPECT_EQ(q10.count(q), 0u);
}

TEST(QueueAlloc, FailsBelowPairCount)
{
    CommPlan plan = makePlan(8, 4); // 4 ordered pairs
    EXPECT_THROW(allocateQueues(plan, 3), FatalError);
}

TEST(QueueAlloc, EmptyPlan)
{
    CommPlan plan;
    auto alloc = allocateQueues(plan, 16);
    EXPECT_EQ(alloc.num_queues, 0);
}

// The decisive test: generated code multiplexed onto a tiny queue
// budget must stay observationally equivalent and deadlock-free for
// many random programs, partitions, and schedules.
class QueueAllocProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QueueAllocProperty, EquivalentUnderTinyBudgets)
{
    const int max_queues = GetParam();
    Rng rng(66000 + max_queues);
    for (int trial = 0; trial < 15; ++trial) {
        auto gen = generateProgram(rng);
        Function &f = gen.func;
        splitCriticalEdges(f);
        verifyOrDie(f);
        Pdg pdg = buildPdg(f);
        auto pdom = DominatorTree::postDominators(f);
        ControlDependence cd(f, pdom);
        ThreadPartition p;
        p.num_threads = 2;
        p.assign.resize(f.numInstrs());
        for (auto &x : p.assign)
            x = static_cast<int>(rng.nextBelow(2));
        CommPlan plan = defaultMtcgPlan(f, pdg, p, cd);

        // The pipeline's codegen step: runMtcg, then assignQueues
        // multiplexes onto the budget. Queue capacity 1 is the worst
        // case for backpressure.
        MtProgram prog;
        QueueProvenance prov;
        std::vector<int> queue_of = generateMtProgram(
            f, pdg, p, plan, cd, /*queue_capacity=*/1, max_queues, prog,
            prov);
        EXPECT_LE(prog.num_queues, max_queues);
        ASSERT_EQ(queue_of.size(), plan.placements.size());
        for (int q : queue_of)
            EXPECT_LT(q, max_queues) << "trial=" << trial;
        // assignQueues is the only multiplexer: runMtcg refuses a
        // budget.
        EXPECT_THROW(runMtcg(f, pdg, p, plan, cd,
                             {.queue_capacity = 1, .max_queues = max_queues}),
                     PanicError);

        for (uint64_t seed = 0; seed < 3; ++seed) {
            auto out = checkEquivalence(
                f, prog, {3, -7}, gen.array_cells, nullptr,
                seed == 0 ? SchedulePolicy::RoundRobin
                          : SchedulePolicy::Random,
                seed);
            ASSERT_TRUE(out.ok)
                << out.detail << " trial=" << trial
                << " budget=" << max_queues << " seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, QueueAllocProperty,
                         ::testing::Values(2, 4, 8, 256),
                         [](const auto &info) {
                             return "q" + std::to_string(info.param);
                         });

} // namespace
} // namespace gmt
