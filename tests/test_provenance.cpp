/**
 * @file
 * Decision-provenance invariants (obs/provenance.hpp, the
 * obs-provenance pass, and obs/explain.hpp):
 *
 *  - Determinism: the canonical provenance JSON of every fig7 cell and
 *    of autotuned cells is byte-identical across runner job counts,
 *    COCO solver job counts, cache cold/warm, and a warm cache rerun.
 *  - Coverage: every instruction, plan placement, and allocated queue
 *    resolves to a provenance decision, and the recorded assignments
 *    equal the pipeline's own artifacts, tuned or not.
 *  - Conservation: the costliest-decisions join covers 100% of the
 *    attributed stall cycles and resolves every StallReport entry to
 *    at least one provenance record.
 *  - Self-diff: diffSchedules of a cell against itself is zero().
 *  - Escaping: names holding control bytes still serialize to valid
 *    JSON.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.hpp"
#include "driver/pass_manager.hpp"
#include "obs/explain.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

/** The fig7 matrix over a runtime-bounded workload subset. */
std::vector<ExperimentCell>
fig7Cells(const std::vector<std::string> &names, int max_queues = 0)
{
    std::vector<Workload> all = allWorkloads();
    std::vector<ExperimentCell> cells;
    for (const std::string &name : names) {
        const Workload *w = nullptr;
        for (const Workload &cand : all)
            if (cand.name == name)
                w = &cand;
        EXPECT_NE(w, nullptr) << name;
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.max_queues = max_queues;
                po.record_provenance = true;
                cells.push_back({*w, po});
            }
        }
    }
    return cells;
}

/**
 * Autotuned COCO cells covering each way the loop ends, at both queue
 * budgets the tests run (max_queues 0 and 4):
 *  - a last accepted recut (177.mesa GREMIO at 0, ks GREMIO at 4): the
 *    final plan was solved under the stall-boosted cut profile;
 *  - no accepted move (183.equake DSWP): the placement and queue
 *    records are the baseline's;
 *  - a last accepted migration (ks GREMIO at 0, 177.mesa GREMIO at 4).
 */
struct TunedCell
{
    const char *workload;
    Scheduler sched;
    /** Kind of the last accepted move at max_queues 0 and 4 ("" =
     *  none accepted). */
    const char *last_accepted[2];
};

const TunedCell kTunedCells[] = {
    {"177.mesa", Scheduler::Gremio, {"recut", "migrate"}},
    {"183.equake", Scheduler::Dswp, {"", ""}},
    {"ks", Scheduler::Gremio, {"migrate", "recut"}},
};

const Workload &
findWorkload(const std::vector<Workload> &all, const std::string &name)
{
    for (const Workload &w : all)
        if (w.name == name)
            return w;
    ADD_FAILURE() << "no workload " << name;
    return all.front();
}

PipelineOptions
tunedOptions(const TunedCell &t, int max_queues)
{
    PipelineOptions po;
    po.scheduler = t.sched;
    po.use_coco = true;
    po.autotune = true;
    po.max_queues = max_queues;
    po.record_provenance = true;
    return po;
}

/** Canonical JSON per cell under one runner configuration. */
std::vector<std::string>
canonicalJsons(std::vector<ExperimentCell> cells, int jobs,
               bool use_cache, int coco_jobs)
{
    for (ExperimentCell &cell : cells)
        cell.opts.coco_jobs = coco_jobs;
    ExperimentOptions eo;
    eo.jobs = jobs;
    eo.use_cache = use_cache;
    ExperimentRunner runner(eo);
    runner.runAll(cells);
    std::vector<std::string> out;
    for (const auto &prov : runner.provenances()) {
        EXPECT_NE(prov, nullptr);
        out.push_back(prov ? prov->canonical_json : "");
    }
    return out;
}

TEST(ProvenanceDeterminism, ByteIdenticalAcrossExecutionAxes)
{
    auto cells = fig7Cells({"adpcmdec", "ks"});
    std::vector<Workload> all = allWorkloads();
    for (const TunedCell &t : kTunedCells)
        for (int max_queues : {0, 4})
            cells.push_back({findWorkload(all, t.workload),
                             tunedOptions(t, max_queues)});
    auto base = canonicalJsons(cells, 1, true, 1);
    ASSERT_EQ(base.size(), cells.size());
    for (const std::string &json : base) {
        EXPECT_FALSE(json.empty());
        EXPECT_EQ(json.rfind("{\"schema\":1,\"type\":\"provenance\"",
                             0),
                  0u);
    }

    struct Variant
    {
        const char *name;
        int jobs;
        bool cache;
        int coco_jobs;
    };
    const Variant variants[] = {
        {"jobs=4", 4, true, 1},
        {"coco_jobs=4", 1, true, 4},
        {"cache=off", 1, false, 1},
        {"jobs=4 coco_jobs=4 cache=off", 4, false, 4},
    };
    for (const Variant &v : variants) {
        auto got = canonicalJsons(cells, v.jobs, v.cache, v.coco_jobs);
        ASSERT_EQ(got.size(), base.size()) << v.name;
        for (size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(got[i], base[i])
                << v.name << " diverged for cell " << i;
    }
}

TEST(ProvenanceDeterminism, WarmCacheRerunIsIdentical)
{
    auto cells = fig7Cells({"adpcmdec"});
    ExperimentOptions eo;
    eo.jobs = 1;
    ExperimentRunner runner(eo);
    runner.runAll(cells);
    std::vector<std::string> first;
    for (const auto &prov : runner.provenances())
        first.push_back(prov->canonical_json);
    const uint64_t misses_cold = runner.summary().cache.misses;
    // Second batch over the same runner: everything is a cache hit,
    // so the provenance artifacts come straight from the cache.
    runner.runAll(cells);
    ASSERT_EQ(runner.summary().cache.misses, misses_cold);
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(runner.provenances()[i]->canonical_json, first[i]);
}

TEST(ProvenanceDeterminism, SerializerIsAFixpointOfTheRecord)
{
    auto cells = fig7Cells({"ks"});
    ExperimentRunner runner;
    runner.runAll(cells);
    for (const auto &prov : runner.provenances()) {
        ASSERT_NE(prov, nullptr);
        EXPECT_EQ(provenanceJson(prov->prov), prov->canonical_json);
    }
}

/** ir + obs + prov of one directly-run cell. */
struct CellRun
{
    std::shared_ptr<const IrArtifact> ir;
    std::shared_ptr<const PartitionArtifact> partition;
    std::shared_ptr<const PlanArtifact> plan;
    std::shared_ptr<const ProgramArtifact> prog;
    std::shared_ptr<const ObsProfileArtifact> obs;
    std::shared_ptr<const ProvenanceArtifact> prov;
    std::shared_ptr<const AutotuneArtifact> autotune;
};

CellRun
runCell(const Workload &w, PipelineOptions po, ArtifactCache *cache)
{
    po.record_provenance = true;
    po.profile_stalls = true;
    PipelineContext ctx(w, po);
    ctx.cache = cache;
    PassManager::standardPipeline().run(ctx);
    return {ctx.ir,  ctx.partition, ctx.plan,    ctx.prog,
            ctx.obs, ctx.prov,      ctx.autotune};
}

/** The coverage invariants of one cell's record against its
 *  artifacts. */
void
expectRecordCoversArtifacts(const CellRun &r)
{
    const Provenance &p = r.prov->prov;

    // Partition record covers every instruction and equals the
    // pipeline's assignment.
    ASSERT_EQ(p.partition.thread_of, r.partition->partition.assign);
    ASSERT_EQ(p.partition.unit_of.size(),
              (size_t)r.ir->func.numInstrs());
    for (InstrId i = 0; i < r.ir->func.numInstrs(); ++i) {
        const UnitDecision *u = p.unitDecisionFor(i);
        ASSERT_NE(u, nullptr) << p.cell << " instr " << i;
        EXPECT_EQ(u->thread, p.partition.thread_of[i]);
    }

    // Placement record covers every plan placement with consistent
    // endpoints.
    const CommPlan &plan = r.plan->plan;
    ASSERT_EQ(p.placement.placements.size(), plan.placements.size());
    for (size_t i = 0; i < plan.placements.size(); ++i) {
        const PlacementDecision *d = p.placementDecisionFor((int)i);
        ASSERT_NE(d, nullptr) << p.cell << " placement " << i;
        EXPECT_EQ(d->src_thread, plan.placements[i].src_thread);
        EXPECT_EQ(d->dst_thread, plan.placements[i].dst_thread);
        EXPECT_FALSE(d->rule.empty());
        // The breakdown names exactly the plan's chosen points.
        ASSERT_EQ(d->points.size(), plan.placements[i].points.size());
    }

    // Queue record covers every allocated queue, and the multiplex
    // lists invert queue_of exactly.
    ASSERT_EQ(p.queues.num_queues, r.prog->prog.num_queues);
    std::vector<int> queue_of(plan.placements.size(), -1);
    for (const QueueDecision &q : p.queues.queues)
        for (int pi : q.placements)
            queue_of[pi] = q.queue;
    EXPECT_EQ(queue_of, r.prog->queue_of) << p.cell;
    for (int q = 0; q < p.queues.num_queues; ++q)
        ASSERT_NE(p.queueDecisionFor(q), nullptr)
            << p.cell << " queue " << q;
}

TEST(ProvenanceCoverage, EveryDecisionResolvesAndMatchesArtifacts)
{
    std::vector<Workload> all = allWorkloads();
    ArtifactCache cache;
    for (const Workload &w : all) {
        if (w.name != "adpcmdec" && w.name != "ks" &&
            w.name != "mcf")
            continue;
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                for (int max_queues : {0, 4}) {
                    PipelineOptions po;
                    po.scheduler = sched;
                    po.use_coco = coco;
                    po.max_queues = max_queues;
                    expectRecordCoversArtifacts(runCell(w, po, &cache));
                }
            }
        }
    }

    // Tuned cells: the records are the ones the autotune pass
    // republished with the schedule it accepted last.
    for (const TunedCell &t : kTunedCells) {
        for (int max_queues : {0, 4}) {
            CellRun r = runCell(findWorkload(all, t.workload),
                                tunedOptions(t, max_queues), &cache);
            ASSERT_NE(r.autotune, nullptr);
            std::string last;
            for (const AutotuneMove &m : r.autotune->result.moves)
                if (m.accepted)
                    last = m.kind;
            EXPECT_EQ(last, t.last_accepted[max_queues ? 1 : 0])
                << r.prov->prov.cell << " max_queues " << max_queues;
            EXPECT_EQ(r.prov->prov.partition.algorithm,
                      std::string(schedulerName(t.sched)) + "+autotune");
            expectRecordCoversArtifacts(r);
        }
    }
}

TEST(ProvenanceExplain, CostliestReportIsConservedAndResolved)
{
    std::vector<Workload> all = allWorkloads();
    ArtifactCache cache;
    for (const Workload &w : all) {
        if (w.name != "adpcmdec" && w.name != "ks")
            continue;
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                CellRun r = runCell(w, po, &cache);
                CostliestReport rep = buildCostliestReport(
                    r.prov->prov, r.obs->report, r.ir->func);
                // 100% of the attributed stall cycles are covered by
                // the block-side entries (the queue side is the same
                // cycles viewed from the queues).
                EXPECT_EQ(rep.block_cycles, rep.total_stall_cycles)
                    << r.prov->prov.cell;
                EXPECT_EQ(rep.total_stall_cycles,
                          r.obs->report.totalStallCycles());
                // Every StallReport entry resolved to >= 1 record.
                EXPECT_EQ(rep.unresolved, 0) << r.prov->prov.cell;
                for (const CostEntry &e : rep.entries)
                    EXPECT_GE(e.records, 1)
                        << r.prov->prov.cell << " " << e.kind;
            }
        }
    }
}

TEST(ProvenanceExplain, SelfDiffIsZero)
{
    std::vector<Workload> all = allWorkloads();
    ArtifactCache cache;
    const Workload *w = nullptr;
    for (const Workload &cand : all)
        if (cand.name == "adpcmdec")
            w = &cand;
    ASSERT_NE(w, nullptr);
    PipelineOptions po;
    po.scheduler = Scheduler::Gremio;
    po.use_coco = true;
    CellRun a = runCell(*w, po, &cache);
    CellRun b = runCell(*w, po, &cache);
    ScheduleDiff d = diffSchedules(a.prov->prov, a.obs->report,
                                   b.prov->prov, b.obs->report);
    EXPECT_TRUE(d.zero());
    EXPECT_TRUE(d.moved.empty());
    EXPECT_TRUE(d.queue_deltas.empty());
    EXPECT_TRUE(d.block_deltas.empty());

    // And a run against a genuinely different schedule is nonzero.
    PipelineOptions po2 = po;
    po2.use_coco = false;
    CellRun c = runCell(*w, po2, &cache);
    ScheduleDiff d2 = diffSchedules(a.prov->prov, a.obs->report,
                                    c.prov->prov, c.obs->report);
    EXPECT_FALSE(d2.zero());
}

TEST(ProvenanceExplain, PointQueriesRenderEveryValidId)
{
    std::vector<Workload> all = allWorkloads();
    const Workload *w = nullptr;
    for (const Workload &cand : all)
        if (cand.name == "ks")
            w = &cand;
    ASSERT_NE(w, nullptr);
    PipelineOptions po;
    po.scheduler = Scheduler::Dswp;
    po.use_coco = true;
    CellRun r = runCell(*w, po, nullptr);
    const Provenance &p = r.prov->prov;
    for (InstrId i = 0; i < r.ir->func.numInstrs(); ++i) {
        std::ostringstream os;
        renderInstrExplanation(os, p, r.ir->func, i);
        EXPECT_NE(os.str().find("partitioner"), std::string::npos)
            << i;
        std::ostringstream js;
        writeInstrExplanationJson(js, p, r.ir->func, i);
        EXPECT_EQ(js.str().rfind("{\"schema\":1,", 0), 0u);
    }
    for (int q = 0; q < p.queues.num_queues; ++q) {
        std::ostringstream os;
        renderQueueExplanation(os, p, q);
        EXPECT_NE(os.str().find("rule"), std::string::npos) << q;
        std::ostringstream js;
        writeQueueExplanationJson(js, p, q);
        EXPECT_EQ(js.str().rfind("{\"schema\":1,", 0), 0u);
    }
}

/** No raw control character (below 0x20) in @p json. */
bool
noRawControlBytes(const std::string &json)
{
    for (char c : json)
        if (static_cast<unsigned char>(c) < 0x20)
            return false;
    return true;
}

// Workload names come from `.gmt` files and may hold any byte but
// whitespace; the provenance and explain writers must still emit
// valid JSON for them.
TEST(ProvenanceJson, ControlBytesInNamesAreEscaped)
{
    std::vector<Workload> all = allWorkloads();
    Workload w = findWorkload(all, "ks");
    w.name = "k\x01s";
    PipelineOptions po;
    po.scheduler = Scheduler::Dswp;
    po.use_coco = true;
    CellRun r = runCell(w, po, nullptr);

    const std::string &json = r.prov->canonical_json;
    EXPECT_NE(json.find("\"k\\u0001s/DSWP+COCO\""), std::string::npos)
        << json.substr(0, 120);
    EXPECT_TRUE(noRawControlBytes(json));

    std::ostringstream js;
    writeInstrExplanationJson(js, r.prov->prov, r.ir->func, 5);
    EXPECT_NE(js.str().find("k\\u0001s"), std::string::npos);
    EXPECT_TRUE(noRawControlBytes(js.str()));
}

TEST(ProvenanceRecord, GremioScoresNameTheChosenThread)
{
    std::vector<Workload> all = allWorkloads();
    const Workload *w = nullptr;
    for (const Workload &cand : all)
        if (cand.name == "adpcmdec")
            w = &cand;
    ASSERT_NE(w, nullptr);
    PipelineOptions po;
    po.scheduler = Scheduler::Gremio;
    po.use_coco = false;
    CellRun r = runCell(*w, po, nullptr);
    const PartitionProvenance &part = r.prov->prov.partition;
    EXPECT_EQ(part.algorithm, "GREMIO");
    for (const UnitDecision &u : part.units) {
        ASSERT_FALSE(u.candidates.empty());
        int chosen = 0;
        uint64_t best = UINT64_MAX;
        for (const ThreadCandidate &c : u.candidates) {
            if (c.chosen) {
                ++chosen;
                EXPECT_EQ(c.thread, u.thread);
            }
            best = std::min(best, c.score);
        }
        EXPECT_EQ(chosen, 1);
        // The chosen candidate carries the minimum score (ties break
        // toward lower busy, which never raises the score).
        for (const ThreadCandidate &c : u.candidates) {
            if (c.chosen) {
                EXPECT_EQ(c.score, best);
            }
        }
    }
}

} // namespace
} // namespace gmt
