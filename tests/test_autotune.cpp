/**
 * @file
 * Feedback-directed autotuner tests (src/autotune/): convergence
 * determinism across jobs and cache states,
 * trajectory monotonicity (an accepted move never worsens simulated
 * cycles), clean static verification (happens-before included) of
 * every intermediate schedule via the on_accept hook, cache-key and
 * cell-id plumbing, and the counts on the autotune pass record.
 */

#include <gtest/gtest.h>

#include "driver/pass_manager.hpp"
#include "mtverify/mtverify.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

PipelineOptions
autotuneOptions(Scheduler sched)
{
    PipelineOptions po;
    po.scheduler = sched;
    po.use_coco = true;
    po.autotune = true;
    return po;
}

/** Run one cell through the standard pipeline. */
void
runCell(PipelineContext &ctx)
{
    PassManager::standardPipeline().run(ctx);
    ASSERT_TRUE(ctx.autotune) << "autotune pass did not publish";
}

TEST(Autotune, ImprovesOrHoldsAndConverges)
{
    Workload w = makeKs();
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    runCell(ctx);

    const PipelineResult &r = ctx.result;
    EXPECT_TRUE(r.autotuned);
    EXPECT_TRUE(r.autotune_converged);
    EXPECT_GT(r.baseline_mt_cycles, 0u);
    EXPECT_LE(r.mt_cycles, r.baseline_mt_cycles);
    EXPECT_GE(r.autotune_iterations, 1);

    const AutotuneResult &at = ctx.autotune->result;
    EXPECT_EQ(at.baseline_cycles, r.baseline_mt_cycles);
    EXPECT_EQ(at.final_schedule.cycles, r.mt_cycles);
    EXPECT_FALSE(ctx.autotune->moves_json.empty());
}

// The monotonicity unit: the trajectory is strictly decreasing (one
// entry per accepted move after the baseline), and every accepted
// move in the log improves on the cycles it started from.
TEST(Autotune, AcceptedMovesNeverWorsenCycles)
{
    for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
        for (Workload (*make)() :
             {makeKs, makeAdpcmDec, makeAdpcmEnc}) {
            Workload w = make();
            PipelineContext ctx(w, autotuneOptions(sched));
            runCell(ctx);
            const AutotuneResult &at = ctx.autotune->result;

            ASSERT_FALSE(at.trajectory.empty());
            EXPECT_EQ(at.trajectory.size(),
                      1 + static_cast<size_t>(at.moves_accepted));
            for (size_t i = 1; i < at.trajectory.size(); ++i)
                EXPECT_LT(at.trajectory[i], at.trajectory[i - 1])
                    << w.name;

            uint64_t prev = at.baseline_cycles;
            for (const AutotuneMove &m : at.moves) {
                if (!m.accepted)
                    continue;
                EXPECT_LT(m.cycles, prev) << w.name;
                prev = m.cycles;
            }
            EXPECT_EQ(prev, at.final_schedule.cycles) << w.name;
        }
    }
}

/**
 * The determinism contract: the tuned plan, the move log (canonical
 * JSON bytes), the trajectory, and the whole PipelineResult are
 * identical however the cell is executed — serially with no cache,
 * against a cold cache, and against a warm cache (pure hit).
 */
TEST(Autotune, DeterministicAcrossJobsAndCache)
{
    Workload w = makeKs();

    // Reference: serial, no cache.
    PipelineContext base(w, autotuneOptions(Scheduler::Gremio));
    runCell(base);

    auto expectSame = [&](const PipelineContext &other,
                          const char *what) {
        EXPECT_EQ(base.result, other.result) << what;
        EXPECT_EQ(base.autotune->moves_json,
                  other.autotune->moves_json)
            << what;
        EXPECT_EQ(base.autotune->result.trajectory,
                  other.autotune->result.trajectory)
            << what;
        EXPECT_EQ(base.partition->partition.assign,
                  other.partition->partition.assign)
            << what;
        EXPECT_EQ(base.plan->plan == other.plan->plan, true) << what;
        EXPECT_EQ(base.autotune->result.iter_wall_ms.size(),
                  other.autotune->result.iter_wall_ms.size())
            << what;
    };

    // Cold cache, then a pure-hit warm rerun of the same cache.
    ArtifactCache cache;
    PipelineContext cold(w, autotuneOptions(Scheduler::Gremio));
    cold.cache = &cache;
    runCell(cold);
    expectSame(cold, "cold cache");

    PipelineContext warm(w, autotuneOptions(Scheduler::Gremio));
    warm.cache = &cache;
    runCell(warm);
    expectSame(warm, "warm cache");
    bool autotune_hit = false;
    for (const PassStats &ps : warm.pass_stats)
        if (ps.pass == "autotune")
            autotune_hit = ps.cached;
    EXPECT_TRUE(autotune_hit);
}

/**
 * Every intermediate (accepted) schedule statically verifies clean,
 * happens-before race check included — observed through the
 * on_accept hook, which fires once per accepted move with the full
 * schedule about to become current.
 */
TEST(Autotune, IntermediateSchedulesVerifyClean)
{
    Workload w = makeKs();
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    int verified = 0;
    ctx.opts.autotune_opts.on_accept =
        [&](const AutotuneSchedule &s) {
            ASSERT_TRUE(ctx.ir && ctx.pdg);
            MtVerifyInput in;
            in.orig = &ctx.ir->func;
            in.pdg = &ctx.pdg->pdg;
            in.partition = &s.partition;
            in.plan = &s.plan;
            in.queue_of = &s.queue_of;
            in.prog = &s.prog;
            in.check_hb = true;
            MtVerifyResult res = verifyMtProgram(in);
            EXPECT_TRUE(res.ok())
                << "intermediate schedule fails mtverify";
            ++verified;
        };
    runCell(ctx);
    EXPECT_EQ(verified, ctx.result.autotune_moves_accepted);
    EXPECT_GT(verified, 0) << "ks/GREMIO should accept >= 1 move";
}

TEST(Autotune, CellIdAndCacheKeyCarryTheAutotuneAxes)
{
    Workload w = makeKs();
    PipelineContext on(w, autotuneOptions(Scheduler::Gremio));
    PipelineOptions po_off = autotuneOptions(Scheduler::Gremio);
    po_off.autotune = false;
    PipelineContext off(w, po_off);

    EXPECT_NE(on.cellId().find("+AT"), std::string::npos);
    EXPECT_EQ(off.cellId().find("+AT"), std::string::npos);

    EXPECT_NE(autotuneKey(on), autotuneKey(off));
    EXPECT_NE(autotuneKey(on).find("|autotuned"), std::string::npos);
    // Upstream keys are shared: baseline and autotuned cells reuse
    // the same codegen artifacts.
    EXPECT_EQ(queueAllocKey(on), queueAllocKey(off));
    // Downstream keys split: the obs artifacts describe different
    // schedules.
    EXPECT_NE(obsProfileKey(on), obsProfileKey(off));
    EXPECT_NE(provenanceKey(on), provenanceKey(off));
}

const PassStats &
autotuneRecord(const PipelineContext &ctx)
{
    for (const PassStats &ps : ctx.pass_stats)
        if (ps.pass == "autotune")
            return ps;
    ADD_FAILURE() << "no autotune pass record";
    return ctx.pass_stats.front();
}

bool
hasCounter(const PassStats &ps, const std::string &name)
{
    for (const auto &[n, v] : ps.counters)
        if (n == name)
            return true;
    return false;
}

// The autotune pass record carries the loop's counts, its own cut
// solves included, on the run that computed the tuned schedule; a
// cache hit reports the schedule but adds no work.
TEST(Autotune, PassRecordCarriesItsCounts)
{
    Workload w = makeKs();
    ArtifactCache cache;
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    ctx.cache = &cache;
    runCell(ctx);

    const AutotuneResult &at = ctx.autotune->result;
    const PassStats &ps = autotuneRecord(ctx);
    EXPECT_FALSE(ps.cached);
    EXPECT_EQ(ps.value("iterations"), at.iterations);
    EXPECT_EQ(ps.value("moves_accepted"), at.moves_accepted);
    EXPECT_EQ(ps.value("moves_rejected"), at.moves_rejected);
    EXPECT_GT(at.coco_warm_starts + at.coco_cold_rebuilds, 0u);
    EXPECT_EQ(ps.value("coco_warm_starts"),
              static_cast<int64_t>(at.coco_warm_starts));
    EXPECT_EQ(ps.value("coco_cold_rebuilds"),
              static_cast<int64_t>(at.coco_cold_rebuilds));

    PipelineContext again(w, autotuneOptions(Scheduler::Gremio));
    again.cache = &cache;
    runCell(again);
    const PassStats &hit = autotuneRecord(again);
    EXPECT_TRUE(hit.cached);
    EXPECT_EQ(hit.value("iterations"), at.iterations);
    EXPECT_FALSE(hasCounter(hit, "coco_warm_starts"));
    EXPECT_FALSE(hasCounter(hit, "coco_cold_rebuilds"));
}

} // namespace
} // namespace gmt
