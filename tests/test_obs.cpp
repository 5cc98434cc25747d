#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/stall_profile.hpp"
#include "obs/stall_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_writer.hpp"
#include "sim/cmp_simulator.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterGaugeBasics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("a.count");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name, same instrument.
    reg.counter("a.count").add();
    EXPECT_EQ(c.value(), 43u);

    Gauge &g = reg.gauge("a.gauge");
    g.set(7);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBuckets)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    h.observe(0.5); // bucket 0 (< 1)
    h.observe(1.0); // bucket 1 ([1, 2))
    h.observe(3.0); // bucket 2 ([2, 4))
    h.observe(3.5); // bucket 2
    Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.sum, 8.0);
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 3.5);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
}

TEST(Metrics, SnapshotSortedByName)
{
    MetricsRegistry reg;
    reg.counter("z").add(1);
    reg.gauge("a").set(2);
    reg.histogram("m").observe(1.0);
    std::vector<MetricSample> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a");
    EXPECT_EQ(snap[1].name, "m");
    EXPECT_EQ(snap[2].name, "z");
    EXPECT_EQ(snap[0].kind, MetricSample::Kind::Gauge);
    EXPECT_EQ(snap[1].kind, MetricSample::Kind::Histogram);
    EXPECT_EQ(snap[2].kind, MetricSample::Kind::Counter);
}

TEST(Metrics, JsonlRecords)
{
    MetricsRegistry reg;
    reg.counter("sim.runs").add(3);
    reg.histogram("pass_ms").observe(2.5);

    std::ostringstream os;
    StatsSink sink(os);
    writeMetricsRecords(reg, sink);
    EXPECT_EQ(sink.recordsWritten(), 2u);

    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    // Fixed key order: schema first, then type.
    EXPECT_EQ(line.rfind("{\"schema\":1,\"type\":\"metrics\"", 0), 0u);
    EXPECT_NE(line.find("\"name\":\"pass_ms\""), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\"histogram\""), std::string::npos);
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"name\":\"sim.runs\""), std::string::npos);
    EXPECT_NE(line.find("\"value\":3"), std::string::npos);
}

TEST(Metrics, HistogramMomentsAreGuarded)
{
    // Empty histograms and single-sample spreads must serialize as
    // plain zeros — never NaN (which JSON cannot carry) or null.
    MetricsRegistry reg;
    reg.histogram("empty");
    reg.histogram("one").observe(5.0);
    reg.histogram("two").observe(1.0);
    reg.histogram("two").observe(3.0);

    std::ostringstream os;
    StatsSink sink(os);
    writeMetricsRecords(reg, sink);

    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // "empty"
    EXPECT_NE(line.find("\"count\":0"), std::string::npos);
    EXPECT_NE(line.find("\"mean\":0"), std::string::npos);
    EXPECT_NE(line.find("\"stddev\":0"), std::string::npos);
    EXPECT_NE(line.find("\"min\":0"), std::string::npos);
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("null"), std::string::npos);

    ASSERT_TRUE(std::getline(in, line)); // "one"
    EXPECT_NE(line.find("\"mean\":5"), std::string::npos);
    EXPECT_NE(line.find("\"stddev\":0"), std::string::npos);
    EXPECT_EQ(line.find("nan"), std::string::npos);

    ASSERT_TRUE(std::getline(in, line)); // "two"
    EXPECT_NE(line.find("\"mean\":2"), std::string::npos);
    EXPECT_NE(line.find("\"stddev\":1"), std::string::npos);
}

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

MemoryImage
refMemory(const Workload &w)
{
    MemoryImage mem;
    mem.alloc(w.mem_cells);
    if (w.fill)
        w.fill(mem, /*ref=*/true);
    return mem;
}

struct ProfiledRun
{
    SimResult result;
    SimProfile profile;
    SimTimeline timeline;
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
    return out;
}

TEST(StallConservation, FullMatrixBothEngines)
{
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
                ProfiledRun fast =
                    runProfiled(ctx.prog->prog, w.ref_args,
                                refMemory(w), m, SimEngine::Fast);
                ProfiledRun ref =
                    runProfiled(ctx.prog->prog, w.ref_args,
                                refMemory(w), m, SimEngine::Reference);

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
// The obs-profile pass.

TEST(ObsPass, ProducesSimulatedArtifact)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    po.profile_stalls = true;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);

    ASSERT_TRUE(ctx.obs);
    EXPECT_TRUE(ctx.obs->simulated);
    EXPECT_EQ(ctx.obs->report.cycles, ctx.result.mt_cycles);
    EXPECT_EQ(ctx.obs->computation, ctx.result.computation);
    EXPECT_EQ(ctx.obs->reg_comm, ctx.result.reg_comm);
    EXPECT_FALSE(ctx.obs->report.threads.empty());
    EXPECT_FALSE(ctx.obs->timeline.core.empty());
}

TEST(ObsPass, CountsOnlyWhenNotSimulating)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    po.profile_stalls = true;
    po.simulate = false;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);

    ASSERT_TRUE(ctx.obs);
    EXPECT_FALSE(ctx.obs->simulated);
    EXPECT_TRUE(ctx.obs->report.queues.empty());
    EXPECT_GT(ctx.obs->computation, 0u);
}

TEST(ObsPass, SkippedWithoutOptIn)
{
    Workload w = allWorkloads().front();
    PipelineOptions po;
    PipelineContext ctx(w, po);
    PassManager::standardPipeline().run(ctx);
    EXPECT_FALSE(ctx.obs);
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
    EXPECT_TRUE(ctx.obs->simulated);
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
