/**
 * @file
 * Pass-manager, artifact-cache, and experiment-runner tests: pass
 * ordering, cache hit/miss and key-level invalidation on option
 * change, parallel-vs-serial bit-identical determinism, the
 * structured stats sink, and the one-execution-per-cell MT oracle.
 */

#include <atomic>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "coco/coco.hpp"
#include "driver/experiment.hpp"
#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "runtime/interpreter.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

const std::vector<std::string> kStandardPasses = {
    "build-ir", "edge-split", "verify",      "profile",
    "pdg",      "partition",  "placement",   "mtcg",
    "queue-alloc", "verify-mt", "mt-run",    "sim",
    "autotune", "obs-profile", "obs-provenance"};

TEST(PassManager, StandardPipelineOrder)
{
    EXPECT_EQ(PassManager::standardPipeline().passNames(),
              kStandardPasses);
}

TEST(PassManager, RunRecordsOneStatsEntryPerPassInOrder)
{
    Workload w = makeAdpcmDec();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Gremio;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);

    ASSERT_EQ(ctx.pass_stats.size(), kStandardPasses.size());
    for (size_t i = 0; i < kStandardPasses.size(); ++i) {
        EXPECT_EQ(ctx.pass_stats[i].pass, kStandardPasses[i]);
        EXPECT_GE(ctx.pass_stats[i].wall_ms, 0.0);
        EXPECT_FALSE(ctx.pass_stats[i].cached) << kStandardPasses[i];
    }
    EXPECT_GT(ctx.result.computation, 0u);
    EXPECT_GT(ctx.result.st_cycles, 0u);
}

TEST(PassManager, CheckInvariantsPasses)
{
    Workload w = makeKs();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Dswp;
    opts.use_coco = true;
    opts.check_invariants = true;
    opts.simulate = false;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);
    EXPECT_GT(ctx.result.computation, 0u);
}

TEST(PassManager, MatchesRunPipelineWrapper)
{
    Workload w = makeAdpcmEnc();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Dswp;
    opts.use_coco = true;

    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);
    EXPECT_EQ(ctx.result, runPipeline(w, opts));
}

const PassStats &
statOf(const PipelineContext &ctx, const char *pass)
{
    for (const auto &ps : ctx.pass_stats)
        if (ps.pass == pass)
            return ps;
    ADD_FAILURE() << "no pass " << pass;
    return ctx.pass_stats.front();
}

/** A pass record's counter, or -1 when the pass did not record it. */
int64_t
counterOf(const PipelineContext &ctx, const char *pass,
          const char *name)
{
    for (const auto &[n, v] : statOf(ctx, pass).counters)
        if (n == name)
            return v;
    return -1;
}

/**
 * The MT program runs once per cell: mt-run interprets it in a
 * counts-only cell; in a simulated cell the sim pass's run is the
 * oracle and the counter, and mt-run holds only the ST reference.
 * Both executors publish the same Fig. 7 counts.
 */
TEST(PassManager, OneMtExecutionPerCell)
{
    Workload w = makeKs();
    PipelineOptions sim_opts;
    sim_opts.scheduler = Scheduler::Dswp;
    sim_opts.use_coco = true;
    PipelineOptions count_opts = sim_opts;
    count_opts.simulate = false;

    PipelineContext simulated(w, sim_opts);
    PassManager::standardPipeline().run(simulated);
    PipelineContext counted(w, count_opts);
    PassManager::standardPipeline().run(counted);

    EXPECT_EQ(counterOf(simulated, "mt-run", "mt_interp"), 0);
    EXPECT_EQ(counterOf(simulated, "mt-run", "computation"), -1);
    EXPECT_EQ(counterOf(counted, "mt-run", "mt_interp"), 1);
    EXPECT_EQ(counterOf(counted, "sim", "computation"), -1);
    for (const char *name : {"computation", "communication"}) {
        EXPECT_GT(counterOf(simulated, "sim", name), 0) << name;
        EXPECT_EQ(counterOf(simulated, "sim", name),
                  counterOf(counted, "mt-run", name))
            << name;
    }
    const PipelineResult &a = simulated.result;
    const PipelineResult &b = counted.result;
    EXPECT_EQ(a.computation, b.computation);
    EXPECT_EQ(a.duplicated_branches, b.duplicated_branches);
    EXPECT_EQ(a.reg_comm, b.reg_comm);
    EXPECT_EQ(a.mem_sync, b.mem_sync);

    // The execution's record carries its cycles: the timing run's in
    // a simulated cell, none in a counts-only one.
    ASSERT_TRUE(simulated.mt_run && counted.mt_run);
    EXPECT_GT(simulated.mt_run->cycles, 0u);
    EXPECT_EQ(simulated.mt_run->cycles, a.mt_cycles);
    EXPECT_EQ(counterOf(simulated, "sim", "mt_cycles"),
              static_cast<int64_t>(a.mt_cycles));
    EXPECT_EQ(counted.mt_run->cycles, 0u);
    EXPECT_EQ(b.mt_cycles, 0u);

    // An autotuned cell republishes the record of the tuned schedule:
    // its cycles and the counts of its checked simulation.
    PipelineOptions tuned_opts = sim_opts;
    tuned_opts.scheduler = Scheduler::Gremio;
    tuned_opts.autotune = true;
    PipelineContext tuned(w, tuned_opts);
    PassManager::standardPipeline().run(tuned);
    ASSERT_TRUE(tuned.autotune && tuned.mt_run);
    const AutotuneResult &at = tuned.autotune->result;
    ASSERT_GT(at.moves_accepted, 0);
    EXPECT_LT(at.final_schedule.cycles, at.baseline_cycles);
    EXPECT_EQ(tuned.mt_run->cycles, at.final_schedule.cycles);
    EXPECT_EQ(tuned.result.mt_cycles, at.final_schedule.cycles);
    EXPECT_EQ(tuned.mt_run->computation, at.computation);
    EXPECT_EQ(tuned.mt_run->duplicated_branches, at.duplicated_branches);
    EXPECT_EQ(tuned.mt_run->reg_comm, at.reg_comm);
    EXPECT_EQ(tuned.mt_run->mem_sync, at.mem_sync);
}

/** Insert "store 1 -> [cell]" right before @p f's Ret. */
void
storeBeforeRet(Function &f, int64_t cell)
{
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &list = f.block(b).instrs();
        for (int pos = 0; pos < static_cast<int>(list.size()); ++pos) {
            if (f.instr(list[pos]).op != Opcode::Ret)
                continue;
            Reg addr = f.newReg();
            Reg one = f.newReg();
            f.insertAt(b, pos,
                       {.op = Opcode::Const, .dst = addr, .imm = cell});
            f.insertAt(b, pos + 1,
                       {.op = Opcode::Const, .dst = one, .imm = 1});
            f.insertAt(b, pos + 2,
                       {.op = Opcode::Store, .src1 = addr, .src2 = one});
            return;
        }
    }
    FAIL() << "no Ret in " << f.name();
}

/**
 * Mutation test of the oracle: a verified program corrupted to store
 * into a cell nothing reads keeps its live-outs and differs only in
 * final memory. Simulated cells (the sim pass's check) and
 * counts-only cells (mt-run's interpretation) must both reject it,
 * with the same message naming the cell and what differs.
 */
TEST(PassManager, FinalMemoryMismatchIsFatal)
{
    Workload w = makeKs();
    const int64_t spare = w.mem_cells++; // a cell nothing reads

    MtProgram corrupted;
    const PassManager standard = PassManager::standardPipeline();
    PassManager pm;
    for (const PassManager::Pass &p : standard.passes()) {
        pm.addPass(p.name, p.run);
        if (p.name != "verify-mt")
            continue;
        pm.addPass("corrupt", [&](PipelineContext &ctx, PassStats &) {
            auto art = std::make_shared<ProgramArtifact>(*ctx.prog);
            storeBeforeRet(art->prog.threads[0], spare);
            corrupted = art->prog;
            ctx.prog = art;
        });
    }

    for (bool simulate : {true, false}) {
        SCOPED_TRACE(simulate ? "simulated" : "counts-only");
        PipelineOptions po;
        po.scheduler = Scheduler::Dswp;
        po.simulate = simulate;
        PipelineContext ctx(w, po);
        try {
            pm.run(ctx);
            ADD_FAILURE() << "corrupted program accepted";
        } catch (const FatalError &e) {
            // Both executors answer to one oracle rule and one message.
            EXPECT_NE(std::string(e.what()).find(
                          "MT output mismatch for " + ctx.cellId() +
                          ": final memory differs"),
                      std::string::npos)
                << e.what();
        }

        // The corruption is invisible to live-outs: only the final
        // memory tells.
        MemoryImage st_mem = workloadMemory(w, /*ref=*/true);
        MemoryImage mt_mem = st_mem;
        auto st = interpret(ctx.ir->func, w.ref_args, st_mem);
        auto mt = interpretMt(corrupted, w.ref_args, mt_mem);
        EXPECT_EQ(mt.live_outs, st.live_outs);
        EXPECT_FALSE(mt_mem == st_mem);
    }
}

TEST(ArtifactCache, ComputeOnceAndCounters)
{
    ArtifactCache cache;
    std::atomic<int> computes{0};
    auto compute = [&]() -> std::shared_ptr<const int> {
        ++computes;
        return std::make_shared<int>(42);
    };

    bool hit = true;
    auto a = cache.getOrCompute<int>("k", compute, &hit);
    EXPECT_FALSE(hit);
    auto b = cache.getOrCompute<int>("k", compute, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(*a, 42);

    auto c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.entries, 1u);

    cache.clear();
    c = cache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.entries, 0u);
}

TEST(ArtifactCache, ThrowingComputePoisonsEntry)
{
    ArtifactCache cache;
    auto boom = [&]() -> std::shared_ptr<const int> {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrCompute<int>("k", boom), std::runtime_error);
    // The entry is poisoned: later lookups rethrow, never recompute.
    auto ok = [&]() -> std::shared_ptr<const int> {
        return std::make_shared<int>(1);
    };
    EXPECT_THROW(cache.getOrCompute<int>("k", ok), std::runtime_error);
}

/** COCO on/off cells share every stage up to (and including) the
 *  partition; placement and later are distinct. */
TEST(ArtifactCache, SharedPrefixHitsAcrossCocoToggle)
{
    Workload w = makeAdpcmDec();
    PipelineOptions base;
    base.scheduler = Scheduler::Dswp;
    base.use_coco = false;
    PipelineOptions opt = base;
    opt.use_coco = true;

    ArtifactCache cache;
    PipelineContext first(w, base);
    first.cache = &cache;
    PassManager::standardPipeline().run(first);

    PipelineContext second(w, opt);
    second.cache = &cache;
    PassManager::standardPipeline().run(second);

    // In a simulated cell mt-run holds only the single-threaded
    // reference, which every cell of the workload shares.
    for (const char *shared :
         {"edge-split", "profile", "pdg", "partition", "mt-run"}) {
        EXPECT_FALSE(statOf(first, shared).cached) << shared;
        EXPECT_TRUE(statOf(second, shared).cached) << shared;
    }
    // The COCO cell's placement (and everything after) is a miss.
    for (const char *distinct : {"placement", "mtcg", "sim"})
        EXPECT_FALSE(statOf(second, distinct).cached) << distinct;
    // ...but the single-threaded simulation is shared too.
    EXPECT_EQ(counterOf(second, "sim", "stsim_cached"), 1);
}

/** Option changes land on different keys — invalidation by
 *  construction, no explicit invalidate call anywhere. */
TEST(ArtifactCache, KeysChangeExactlyWithTheirOptionPrefix)
{
    Workload w = makeAdpcmDec();
    PipelineOptions a;
    a.scheduler = Scheduler::Dswp;
    a.use_coco = true;
    PipelineContext ca(w, a);

    // Same options -> same keys.
    {
        PipelineContext cb(w, a);
        EXPECT_EQ(partitionKey(ca), partitionKey(cb));
        EXPECT_EQ(planKey(ca), planKey(cb));
        EXPECT_EQ(queueAllocKey(ca), queueAllocKey(cb));
    }
    // Scheduler change invalidates partition and downstream, not the
    // schedule-independent stages.
    {
        PipelineOptions b = a;
        b.scheduler = Scheduler::Gremio;
        PipelineContext cb(w, b);
        EXPECT_EQ(irKey(ca), irKey(cb));
        EXPECT_EQ(profileKey(ca), profileKey(cb));
        EXPECT_EQ(pdgKey(ca), pdgKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
        EXPECT_NE(planKey(ca), planKey(cb));
    }
    // Profile source feeds the partition too.
    {
        PipelineOptions b = a;
        b.static_profile = true;
        PipelineContext cb(w, b);
        EXPECT_NE(profileKey(ca), profileKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
    }
    // A COCO knob invalidates the plan but nothing upstream.
    {
        PipelineOptions b = a;
        b.coco.multi_pair_memory = false;
        PipelineContext cb(w, b);
        EXPECT_EQ(partitionKey(ca), partitionKey(cb));
        EXPECT_NE(planKey(ca), planKey(cb));
        EXPECT_NE(mtcgKey(ca), mtcgKey(cb));
    }
    // Queue capacity only reaches MTCG and later.
    {
        PipelineOptions b = a;
        b.queue_capacity = 4;
        PipelineContext cb(w, b);
        EXPECT_EQ(planKey(ca), planKey(cb));
        EXPECT_NE(mtcgKey(ca), mtcgKey(cb));
    }
    // Queue budget only reaches the allocator.
    {
        PipelineOptions b = a;
        b.max_queues = 2;
        PipelineContext cb(w, b);
        EXPECT_EQ(mtcgKey(ca), mtcgKey(cb));
        EXPECT_NE(queueAllocKey(ca), queueAllocKey(cb));
    }
    // Different workload shares nothing.
    {
        Workload v = makeKs();
        PipelineContext cb(v, a);
        EXPECT_NE(irKey(ca), irKey(cb));
        EXPECT_NE(pdgKey(ca), pdgKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
    }
    // Default queue capacity is the per-scheduler paper value.
    EXPECT_EQ(resolvedQueueCapacity(a), 32);
    PipelineOptions g = a;
    g.scheduler = Scheduler::Gremio;
    EXPECT_EQ(resolvedQueueCapacity(g), 1);
    g.queue_capacity = 7;
    EXPECT_EQ(resolvedQueueCapacity(g), 7);
}

std::vector<ExperimentCell>
determinismGrid()
{
    std::vector<ExperimentCell> cells;
    for (const Workload &w : {makeAdpcmDec(), makeKs()})
        for (Scheduler s : {Scheduler::Dswp, Scheduler::Gremio})
            for (bool coco : {false, true}) {
                PipelineOptions o;
                o.scheduler = s;
                o.use_coco = coco;
                cells.push_back({w, o});
            }
    return cells;
}

/** The acceptance oracle: parallel + cached == serial + uncached,
 *  field for field, in cell order. */
TEST(ExperimentRunner, ParallelMatchesSerialBitIdentical)
{
    auto cells = determinismGrid();

    ExperimentOptions serial;
    serial.jobs = 1;
    serial.use_cache = false;
    ExperimentRunner serial_runner(serial);
    auto expected = serial_runner.runAll(cells);
    EXPECT_EQ(serial_runner.effectiveJobs(), 1);

    ExperimentOptions par;
    par.jobs = 4;
    par.use_cache = true;
    ExperimentRunner par_runner(par);
    auto got = par_runner.runAll(cells);
    EXPECT_EQ(par_runner.effectiveJobs(), 4);

    ASSERT_EQ(expected.size(), got.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;

    EXPECT_EQ(par_runner.summary().cells, static_cast<int>(cells.size()));
    EXPECT_GT(par_runner.summary().cache.hits, 0u);
    EXPECT_EQ(serial_runner.summary().cache.hits, 0u);
}

TEST(ExperimentRunner, RepeatedBatchIsAllHitsAndIdentical)
{
    auto cells = determinismGrid();
    ExperimentRunner runner;
    auto first = runner.runAll(cells);
    auto after_first = runner.cache().counters();
    auto second = runner.runAll(cells);
    auto after_second = runner.cache().counters();
    EXPECT_EQ(first, second);
    // Second batch recomputes nothing: no new misses, only hits.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
}

TEST(ExperimentRunner, FirstFailingCellErrorInCellOrder)
{
    Workload bad = makeAdpcmDec();
    bad.ref_args.clear(); // interpreter will reject missing args
    std::vector<ExperimentCell> cells{{bad, {}}, {makeKs(), {}}};
    ExperimentOptions opts;
    opts.jobs = 2;
    ExperimentRunner runner(opts);
    EXPECT_ANY_THROW(runner.runAll(cells));
}

// ---------------------------------------------------------------------------
// Work counters: each count has one home, the pass record of the
// execution that did the work.

const std::vector<std::string> kWorkCounters = {
    "coco_warm_starts", "coco_cold_rebuilds", "dyn_instrs",
    "st_dyn_instrs", "mt_dyn_instrs"};

const PassStats &
recordOf(const std::vector<PassStats> &records, const char *pass)
{
    for (const PassStats &ps : records)
        if (ps.pass == pass)
            return ps;
    ADD_FAILURE() << "no pass " << pass;
    return records.front();
}

bool
hasCounter(const PassStats &ps, const std::string &name)
{
    for (const auto &[n, v] : ps.counters)
        if (n == name)
            return true;
    return false;
}

/** The fig7 grid: per workload, (GREMIO, DSWP) x (MTCG, COCO),
 *  counts only. */
std::vector<ExperimentCell>
fig7Grid()
{
    std::vector<ExperimentCell> cells;
    for (const Workload &w : allWorkloads())
        for (Scheduler s : {Scheduler::Gremio, Scheduler::Dswp})
            for (bool coco : {false, true}) {
                PipelineOptions o;
                o.scheduler = s;
                o.use_coco = coco;
                o.simulate = false;
                cells.push_back({w, o});
            }
    return cells;
}

/** Each COCO cell's placement record carries the cut-cache counts of
 *  the cocoOptimize call behind its plan, though the cells ran
 *  concurrently against one cache. */
TEST(PassRecords, PlacementCountsAreTheCellsOwnCocoCall)
{
    auto cells = fig7Grid();
    ExperimentOptions eo;
    eo.jobs = 4;
    ExperimentRunner runner(eo);
    runner.runAll(cells);
    ASSERT_EQ(runner.passStats().size(), cells.size());

    for (size_t i = 0; i < cells.size(); ++i) {
        const PassStats &ps =
            recordOf(runner.passStats()[i], "placement");
        if (!cells[i].opts.use_coco) {
            EXPECT_FALSE(hasCounter(ps, "coco_warm_starts")) << i;
            continue;
        }
        PipelineContext ctx(cells[i].workload, cells[i].opts);
        PassManager::codegenPipeline().run(ctx);
        CocoResult fresh = cocoOptimize(
            ctx.ir->func, ctx.pdg->pdg, ctx.partition->partition,
            ctx.pdg->cd, ctx.profile->profile, cells[i].opts.coco);
        EXPECT_FALSE(ps.cached) << ctx.cellId();
        EXPECT_EQ(fresh.warm_starts + fresh.cold_rebuilds, fresh.problems)
            << ctx.cellId();
        EXPECT_EQ(ps.value("coco_warm_starts"),
                  static_cast<int64_t>(fresh.warm_starts))
            << ctx.cellId();
        EXPECT_EQ(ps.value("coco_cold_rebuilds"),
                  static_cast<int64_t>(fresh.cold_rebuilds))
            << ctx.cellId();
    }
}

/** Simulated and counts-only cells of the determinism grid. */
std::vector<ExperimentCell>
countedAndSimulatedGrid()
{
    std::vector<ExperimentCell> cells = determinismGrid();
    const size_t n = cells.size();
    for (size_t i = 0; i < n; ++i) {
        cells.push_back(cells[i]);
        cells.back().opts.simulate = false;
    }
    return cells;
}

/** Without a cache every cell does all of its own work, so its pass
 *  records are the same whatever ran beside it. */
TEST(PassRecords, SameCountersAtAnyJobCount)
{
    auto cells = countedAndSimulatedGrid();
    auto records = [&](int jobs) {
        ExperimentOptions eo;
        eo.jobs = jobs;
        eo.use_cache = false;
        ExperimentRunner runner(eo);
        runner.runAll(cells);
        return runner.passStats();
    };
    const auto serial = records(1);
    const auto parallel = records(4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_EQ(serial[i].size(), parallel[i].size()) << "cell " << i;
        for (size_t p = 0; p < serial[i].size(); ++p) {
            EXPECT_EQ(serial[i][p].pass, parallel[i][p].pass);
            EXPECT_EQ(serial[i][p].counters, parallel[i][p].counters)
                << "cell " << i << " pass " << serial[i][p].pass;
        }
        // Uncached, every cell runs the profile, the ST reference and
        // (counts only) the MT interpreter itself.
        EXPECT_GT(recordOf(serial[i], "profile").value("dyn_instrs"), 0);
        EXPECT_GT(recordOf(serial[i], "mt-run").value("st_dyn_instrs"), 0);
        EXPECT_EQ(hasCounter(recordOf(serial[i], "mt-run"),
                             "mt_dyn_instrs"),
                  !cells[i].opts.simulate)
            << "cell " << i;
    }
}

/** A cache hit reports the artifact but adds no work: a repeated
 *  batch's records carry no work counter at all. */
TEST(PassRecords, CacheHitsAddNoWork)
{
    auto cells = countedAndSimulatedGrid();
    ExperimentRunner runner;
    runner.runAll(cells);
    int64_t first = 0;
    for (const auto &records : runner.passStats())
        for (const PassStats &ps : records)
            for (const std::string &name : kWorkCounters)
                first += ps.value(name);
    EXPECT_GT(first, 0);

    runner.runAll(cells);
    for (const auto &records : runner.passStats())
        for (const PassStats &ps : records)
            for (const std::string &name : kWorkCounters)
                EXPECT_FALSE(hasCounter(ps, name))
                    << ps.pass << " " << name;
}

TEST(Stats, JsonObjectRenderAndEscape)
{
    JsonObject o;
    o.str("name", "a\"b\\c\n").num("i", int64_t{-3}).num("d", 1.5);
    o.boolean("ok", true);
    EXPECT_EQ(o.render(),
              "{\"name\":\"a\\\"b\\\\c\\n\",\"i\":-3,\"d\":1.5,"
              "\"ok\":true}");
}

TEST(Stats, SinkWritesOneRecordPerPassAndCell)
{
    std::ostringstream out;
    StatsSink sink(out);

    ExperimentOptions opts;
    opts.jobs = 1;
    opts.stats = &sink;
    ExperimentRunner runner(opts);
    PipelineOptions po;
    po.scheduler = Scheduler::Gremio;
    runner.runAll({{makeAdpcmDec(), po}});

    // 13 pass records + 2 sim-engine records (st, mt) + 1 cell record.
    EXPECT_EQ(sink.recordsWritten(), kStandardPasses.size() + 3);
    std::istringstream in(out.str());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"cell\":\"adpcmdec/GREMIO\""),
                  std::string::npos);
        ++lines;
    }
    EXPECT_EQ(lines, sink.recordsWritten());
    EXPECT_NE(out.str().find("\"pass\":\"build-ir\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"type\":\"cell\""), std::string::npos);
    EXPECT_NE(out.str().find("\"type\":\"sim\""), std::string::npos);
    EXPECT_NE(out.str().find("\"which\":\"st\""), std::string::npos);
    EXPECT_NE(out.str().find("\"which\":\"mt\""), std::string::npos);
    EXPECT_NE(out.str().find("\"engine\":\"fast\""), std::string::npos);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&]() { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
    // The pool is reusable after wait().
    pool.submit([&]() { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

} // namespace
} // namespace gmt
