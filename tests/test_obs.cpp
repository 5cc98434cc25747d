#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autotune/autotune.hpp"
#include "driver/pass_manager.hpp"
#include "obs/stall_profile.hpp"
#include "obs/stall_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_writer.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/error.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------------
// Trace writer: the output must be valid JSON in the Chrome
// trace-event Object Format. A tiny recursive-descent parser keeps
// the check honest (substring checks can't catch broken nesting).

struct JsonCursor
{
    const std::string &s;
    size_t i = 0;

    void ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\r' || s[i] == '\t'))
            ++i;
    }

    bool lit(const char *t)
    {
        size_t n = std::string(t).size();
        if (s.compare(i, n, t) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }

    bool value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return lit("true");
        case 'f': return lit("false");
        case 'n': return lit("null");
        default: return number();
        }
    }

    bool object()
    {
        if (!lit("{"))
            return false;
        ws();
        if (lit("}"))
            return true;
        for (;;) {
            ws();
            if (!string())
                return false;
            ws();
            if (!lit(":"))
                return false;
            if (!value())
                return false;
            ws();
            if (lit("}"))
                return true;
            if (!lit(","))
                return false;
        }
    }

    bool array()
    {
        if (!lit("["))
            return false;
        ws();
        if (lit("]"))
            return true;
        for (;;) {
            if (!value())
                return false;
            ws();
            if (lit("]"))
                return true;
            if (!lit(","))
                return false;
        }
    }
};

bool
isValidJson(const std::string &s)
{
    JsonCursor c{s};
    if (!c.value())
        return false;
    c.ws();
    return c.i == s.size();
}

TEST(TraceWriter, WellFormedChromeTrace)
{
    TraceCollector tc;
    int pid = tc.registerProcess("sim test\"quoted\"");
    tc.nameThread(pid, 0, "core 0");
    tc.completeEvent("compute", "sim", pid, 0, 0.0, 10.0);
    tc.completeEvent("queue-empty\n", "sim", pid, 0, 10.0, 2.5,
                     {{"cell", "ks/DSWP"}}, {{"cached", 1}});
    tc.counterEvent("queue 0", pid, 3.0, "occupancy", 17);
    tc.laneForThisThread();

    std::string json = tc.json();
    EXPECT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    // The raw quote and newline were escaped.
    EXPECT_NE(json.find("sim test\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("queue-empty\\n"), std::string::npos);
    // 2 complete + 1 counter + process_name + thread_name + the
    // lane's thread_name metadata.
    EXPECT_EQ(tc.numEvents(), 6u);
}

TEST(TraceWriter, EmptyCollectorIsStillValid)
{
    TraceCollector tc;
    EXPECT_TRUE(isValidJson(tc.json()));
    EXPECT_EQ(tc.numEvents(), 0u);
}

// ---------------------------------------------------------------------------
// Stall attribution: conservation + engine equivalence over the full
// benchmark matrix. This is the tentpole invariant: every stall cycle
// the simulator charges anywhere must be charged exactly once, with
// cycle skipping on and off, and the two attributions must be
// bit-identical (same architectural events, same charges).

struct ProfiledRun
{
    SimResult result;
    SimProfile profile;
    SimTimeline timeline;
    MemoryImage mem; ///< final memory
};

ProfiledRun
runProfiled(const MtProgram &prog, const std::vector<int64_t> &args,
            MemoryImage mem, const MachineConfig &m, SimEngine e)
{
    ProfiledRun out;
    CmpSimulator sim(m, e);
    TimelineBuilder tb;
    sim.setProfile(&out.profile);
    sim.setTimeline(&tb);
    out.result = sim.run(prog, args, mem);
    out.timeline = tb.take();
    out.mem = std::move(mem);
    return out;
}

TEST(StallConservation, FullMatrixBothEngines)
{
    uint64_t one_port_stalls = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                SCOPED_TRACE(ctx.cellId());

                const MachineConfig &m = po.machine;
                ProfiledRun fast = runProfiled(
                    ctx.prog->prog, w.ref_args,
                    workloadMemory(w, /*ref=*/true), m, SimEngine::Fast);
                ProfiledRun ref = runProfiled(
                    ctx.prog->prog, w.ref_args,
                    workloadMemory(w, /*ref=*/true), m,
                    SimEngine::Reference);

                // Conservation: attributed cycles sum exactly to the
                // independently maintained aggregate counters.
                EXPECT_EQ(checkStallConservation(
                              fast.profile, stallTotals(fast.result)),
                          "");
                EXPECT_EQ(checkStallConservation(
                              ref.profile, stallTotals(ref.result)),
                          "");

                // Differential: skip on and off attribute identically.
                EXPECT_TRUE(fast.result == ref.result);
                EXPECT_TRUE(fast.profile == ref.profile);
                EXPECT_TRUE(fast.timeline == ref.timeline);

                // Instrumentation never changes a run: with nothing
                // attached each engine takes its lean build, which must
                // give the same result and final memory. Also checked
                // with a single sync-array port, where produces (not
                // only consumes) lose port arbitration, so every stall
                // charge the matrix reaches is compared. stall_mem_port
                // is charged only in a cycle where nothing issued, so
                // no machine with a memory port reaches it.
                auto checkLean = [&](const MachineConfig &mc, SimEngine e,
                                     const ProfiledRun &run) {
                    SCOPED_TRACE(std::string(simEngineName(e)) +
                                 ", sa_ports " +
                                 std::to_string(mc.sa_ports));
                    MemoryImage mem = workloadMemory(w, /*ref=*/true);
                    SimResult lean = CmpSimulator(mc, e).run(
                        ctx.prog->prog, w.ref_args, mem);
                    EXPECT_TRUE(lean == run.result);
                    EXPECT_TRUE(mem == run.mem);
                };
                checkLean(m, SimEngine::Fast, fast);
                checkLean(m, SimEngine::Reference, ref);
                MachineConfig one_port = m;
                one_port.sa_ports = 1;
                for (SimEngine e : {SimEngine::Fast, SimEngine::Reference}) {
                    ProfiledRun run = runProfiled(
                        ctx.prog->prog, w.ref_args,
                        workloadMemory(w, /*ref=*/true), one_port, e);
                    for (const CoreStats &core : run.result.core)
                        one_port_stalls += core.stall_sa_port;
                    checkLean(one_port, e, run);
                }

                // Timeline sanity: per-core intervals are ordered,
                // disjoint, and within the run.
                for (const auto &lane : fast.timeline.core) {
                    uint64_t prev = 0;
                    for (const CoreInterval &iv : lane) {
                        EXPECT_LE(prev, iv.begin);
                        EXPECT_LT(iv.begin, iv.end);
                        EXPECT_LE(iv.end, fast.result.cycles);
                        prev = iv.end;
                    }
                }

                // The report rollup preserves the totals.
                StallReport report = buildStallReport(
                    fast.profile, fast.result.cycles, ctx.plan->plan,
                    ctx.prog->queue_of, ctx.prog->prog);
                uint64_t block_total = 0;
                for (const auto &core : fast.profile.blocks)
                    for (const BlockStallProf &b : core)
                        block_total += b.total();
                EXPECT_EQ(report.totalStallCycles(), block_total);
                for (size_t i = 1; i < report.queues.size(); ++i)
                    EXPECT_GE(report.queues[i - 1].prof.stallCycles(),
                              report.queues[i].prof.stallCycles());
                for (size_t i = 1; i < report.blocks.size(); ++i)
                    EXPECT_GE(report.blocks[i - 1].prof.total(),
                              report.blocks[i].prof.total());
            }
        }
    }
    EXPECT_GT(one_port_stalls, 0u);
}

TEST(StallConservation, DetectsLostCycle)
{
    SimProfile p;
    p.init({2}, 1);
    p.chargeOperand(0, 1, 10);
    std::vector<CoreStallTotals> agg(1);
    agg[0].operand = 10;
    EXPECT_EQ(checkStallConservation(p, agg), "");
    agg[0].operand = 11; // one cycle the attribution never charged
    EXPECT_NE(checkStallConservation(p, agg), "");
}

// ---------------------------------------------------------------------------
// The checked simulation the sim and obs-profile passes and the
// autotuner share: its oracle holds lean and with a SimProfile
// attached (the profiled path is obs-profile's), and every failure
// names the cell.

TEST(CheckedSim, OracleNamesTheCellLeanAndProfiled)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);
    const std::string cell = ctx.cellId();

    std::vector<int64_t> live_outs = ctx.st_ref->live_outs;
    MemoryImage final_mem = ctx.st_ref->final_mem;
    const SimCheck chk{po.machine,
                       po.sim_engine,
                       &w.ref_args,
                       [&w]() { return workloadMemory(w, /*ref=*/true); },
                       &live_outs,
                       &final_mem};
    const MtProgram &prog = ctx.prog->prog;
    const uint64_t cycles = ctx.mt_run->cycles;
    auto lean = [&] { simulateChecked(chk, decodeProgram(prog), "MT", cell); };
    auto profiled = [&] {
        profileChecked(chk, prog, ctx.plan->plan, ctx.prog->queue_of,
                       cycles, cell);
    };
    auto expectMismatch = [&](const std::function<void()> &run,
                              const std::string &what) {
        try {
            run();
            ADD_FAILURE() << "no mismatch raised: " << what;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "MT output mismatch for " + cell + ": " + what);
        }
    };

    // The true reference passes both ways.
    EXPECT_NO_THROW(lean());
    EXPECT_NO_THROW(profiled());

    // One wrong live-out.
    ASSERT_FALSE(live_outs.empty());
    live_outs[0] += 1;
    expectMismatch(lean, "live-outs differ");
    expectMismatch(profiled, "live-outs differ");
    live_outs[0] -= 1;

    // One wrong memory word.
    ASSERT_GT(final_mem.size(), 0);
    final_mem.write(0, final_mem.read(0) + 1);
    expectMismatch(lean, "final memory differs");
    expectMismatch(profiled, "final memory differs");
    final_mem = ctx.st_ref->final_mem;

    // A profiled rerun that misses the schedule's known cycles.
    try {
        profileChecked(chk, prog, ctx.plan->plan, ctx.prog->queue_of,
                       cycles + 1, cell);
        ADD_FAILURE() << "no divergence raised";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("diverged for " + cell),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------------
// The obs-profile pass.

TEST(ObsPass, ProducesSimulatedArtifact)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    po.profile_stalls = true;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);

    ASSERT_TRUE(ctx.obs);
    EXPECT_EQ(ctx.obs->report.cycles, ctx.result.mt_cycles);
    EXPECT_FALSE(ctx.obs->report.threads.empty());
    EXPECT_FALSE(ctx.obs->timeline.core.empty());
}

TEST(ObsPass, SkippedWithoutOptIn)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);
    EXPECT_FALSE(ctx.obs);
}

TEST(ObsPass, SkippedWithoutSimulation)
{
    // A counts-only cell has no timing run to attribute; its counts
    // are on the PipelineResult.
    Workload w = allWorkloads().front();
    PipelineOptions po;
    po.profile_stalls = true;
    po.simulate = false;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);
    EXPECT_FALSE(ctx.obs);
    EXPECT_GT(ctx.result.computation, 0u);
}

TEST(ObsPass, TraceCollectorForcesProfileAndEmitsLanes)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    TraceCollector tc;
    PipelineContext ctx(w, po);
    ctx.trace = &tc;
    PassManager::standardPipeline().run(ctx);

    ASSERT_TRUE(ctx.obs);
    EXPECT_GT(tc.numEvents(), 0u);
    std::string json = tc.json();
    EXPECT_TRUE(isValidJson(json));
    // Pass spans on the pipeline track and sim lanes for the cell.
    EXPECT_NE(json.find("\"name\":\"mtcg\""), std::string::npos);
    EXPECT_NE(json.find("sim " + ctx.cellId()), std::string::npos);
    EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
}

} // namespace
} // namespace gmt
