#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "ir/verifier.hpp"
#include "runtime/interpreter.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

class WorkloadSuite : public ::testing::TestWithParam<int>
{
  protected:
    Workload
    workload() const
    {
        return allWorkloads()[GetParam()];
    }
};

TEST_P(WorkloadSuite, VerifiesAndTerminates)
{
    Workload w = workload();
    EXPECT_TRUE(verifyFunction(w.func).empty()) << w.name;
    MemoryImage mem = workloadMemory(w, /*ref=*/false);
    auto run = interpret(w.func, w.train_args, mem);
    EXPECT_GT(run.dyn_instrs, 100u) << w.name << " trivial train run";
    EXPECT_FALSE(run.live_outs.empty()) << w.name;
}

TEST_P(WorkloadSuite, RefLargerThanTrain)
{
    Workload w = workload();
    MemoryImage m1 = workloadMemory(w, /*ref=*/false);
    MemoryImage m2 = workloadMemory(w, /*ref=*/true);
    auto train = interpret(w.func, w.train_args, m1);
    auto ref = interpret(w.func, w.ref_args, m2);
    EXPECT_GT(ref.dyn_instrs, 2 * train.dyn_instrs) << w.name;
}

TEST_P(WorkloadSuite, FillIsDeterministic)
{
    Workload w = workload();
    EXPECT_TRUE(workloadMemory(w, /*ref=*/true) ==
                workloadMemory(w, /*ref=*/true))
        << w.name;
}

// The heavyweight end-to-end checks: each workload goes through the
// full pipeline under both schedulers, with and without COCO. The
// pipeline itself asserts output equivalence, queue drain, plan
// validity, and partition validity; here we additionally check the
// paper's headline invariant (COCO never increases communication on
// the profiled behaviour's shape).
TEST_P(WorkloadSuite, EndToEndBothSchedulers)
{
    Workload w = workload();
    for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
        PipelineOptions base;
        base.scheduler = sched;
        base.use_coco = false;
        base.simulate = false; // timing covered by the benches
        auto mtcg = runPipeline(w, base);

        PipelineOptions with;
        with.scheduler = sched;
        with.use_coco = true;
        with.simulate = false;
        auto coco = runPipeline(w, with);

        EXPECT_LE(coco.communication(), mtcg.communication())
            << w.name << " " << schedulerName(sched);
        // Better placement can only shrink the replicated control
        // flow (jumps of no-longer-relevant blocks, duplicated
        // branches), never grow the copied computation.
        EXPECT_LE(coco.total(), mtcg.total())
            << w.name << " " << schedulerName(sched);
    }
}

INSTANTIATE_TEST_SUITE_P(AllEleven, WorkloadSuite,
                         ::testing::Range(0, 11),
                         [](const auto &info) {
                             std::string n =
                                 allWorkloads()[info.param].name;
                             for (auto &c : n) {
                                 if (c == '.' || c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(Workloads, ElevenKernelsMatchFigure6b)
{
    auto all = allWorkloads();
    ASSERT_EQ(all.size(), 11u);
    EXPECT_EQ(all[0].function_name, "adpcm_decoder");
    EXPECT_EQ(all[2].function_name, "FindMaxGpAndSwap");
    EXPECT_EQ(all[3].exec_percent, 58);
    EXPECT_EQ(all[10].exec_percent, 26);
}

} // namespace
} // namespace gmt
