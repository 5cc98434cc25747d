#include "driver/pass_manager.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/loop_info.hpp"
#include "coco/coco.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "mtcg/queue_alloc.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/error.hpp"

namespace gmt
{

std::string
PipelineContext::cellId() const
{
    std::string id = workload->name;
    id += '/';
    id += schedulerName(opts.scheduler);
    if (opts.use_coco)
        id += "+COCO";
    if (opts.autotune)
        id += "+AT";
    return id;
}

MtVerifyInput
mtVerifyInput(const PipelineContext &ctx, bool check_hb)
{
    return {.orig = &ctx.ir->func,
            .pdg = &ctx.pdg->pdg,
            .partition = &ctx.partition->partition,
            .plan = &ctx.plan->plan,
            .queue_of = &ctx.prog->queue_of,
            .prog = &ctx.prog->prog,
            .check_hb = check_hb};
}

// ---------------------------------------------------------------------------
// Cache keys. Every key names the stage and the exact option prefix
// that can influence the artifact; see artifact_cache.hpp.

std::string
irKey(const PipelineContext &ctx)
{
    return "ir|" + ctx.workload->cacheKey();
}

std::string
profileKey(const PipelineContext &ctx)
{
    return "profile|" + ctx.workload->cacheKey() +
           (ctx.opts.static_profile ? "|static" : "|train");
}

std::string
pdgKey(const PipelineContext &ctx)
{
    return "pdg|" + ctx.workload->cacheKey();
}

std::string
partitionKey(const PipelineContext &ctx)
{
    return std::string("partition|") + ctx.workload->cacheKey() + '|' +
           schedulerName(ctx.opts.scheduler) +
           "|nt=" + std::to_string(ctx.opts.num_threads) +
           (ctx.opts.static_profile ? "|static" : "|train");
}

std::string
planKey(const PipelineContext &ctx)
{
    std::string key = "plan|" + partitionKey(ctx);
    if (!ctx.opts.use_coco)
        return key + "|mtcg-default";
    const CocoOptions &c = ctx.opts.coco;
    key += "|coco";
    key += c.control_flow_penalties ? "|cfp=1" : "|cfp=0";
    key += c.multi_pair_memory ? "|mpm=1" : "|mpm=0";
    return key;
}

int
resolvedQueueCapacity(const PipelineOptions &opts)
{
    if (opts.queue_capacity > 0)
        return opts.queue_capacity;
    return opts.scheduler == Scheduler::Dswp ? 32 : 1;
}

std::string
mtcgKey(const PipelineContext &ctx)
{
    return "prog|" + planKey(ctx) +
           "|qcap=" + std::to_string(resolvedQueueCapacity(ctx.opts));
}

std::string
queueAllocKey(const PipelineContext &ctx)
{
    return "qalloc|" + mtcgKey(ctx) +
           "|maxq=" + std::to_string(ctx.opts.max_queues);
}

namespace
{

/** Tag of every key that depends on the tuned schedule (the loop
 *  has no settings, so on/off is its only axis). Empty when the pass
 *  is off, so baseline cells and autotuned cells share every upstream
 *  artifact. */
std::string
autotuneTag(const PipelineOptions &o)
{
    return o.autotune ? "|autotuned" : "";
}

} // namespace

std::string
autotuneKey(const PipelineContext &ctx)
{
    // The loop simulates on the configured machine/engine, so both
    // are axes of the tuned schedule (unlike the codegen prefix).
    return "autotune|" + queueAllocKey(ctx) + '|' +
           machineKey(ctx.opts.machine) +
           (ctx.opts.sim_engine == SimEngine::Reference ? "|ref" : "") +
           autotuneTag(ctx.opts);
}

std::string
obsProfileKey(const PipelineContext &ctx)
{
    // The attribution itself is engine-independent, but the keys stay
    // apart per engine so differential tests exercise both engines'
    // instrumentation instead of sharing one cached artifact. The
    // autotune tag marks a tuned schedule being profiled.
    return "obs|" + queueAllocKey(ctx) + '|' +
           machineKey(ctx.opts.machine) +
           (ctx.opts.sim_engine == SimEngine::Reference ? "|ref" : "") +
           autotuneTag(ctx.opts);
}

std::string
provenanceKey(const PipelineContext &ctx)
{
    // Decisions are fixed once the multiplexed program is: every
    // upstream decision axis is already encoded in queueAllocKey.
    // With autotuning on, the record describes the tuned schedule,
    // which the autotune tag marks.
    return "prov|" + queueAllocKey(ctx) + autotuneTag(ctx.opts);
}

std::string
coreMachineKey(const MachineConfig &m)
{
    auto cache = [](const CacheConfig &c) {
        return std::to_string(c.size_bytes) + ',' +
               std::to_string(c.associativity) + ',' +
               std::to_string(c.line_bytes) + ',' +
               std::to_string(c.hit_latency);
    };
    return std::to_string(m.num_cores) + ';' +
           std::to_string(m.issue_width) + ';' +
           std::to_string(m.mem_ports) + ';' +
           std::to_string(m.alu_latency) + ';' +
           std::to_string(m.mul_latency) + ';' +
           std::to_string(m.div_latency) + ';' + cache(m.l1d) + ';' +
           cache(m.l2) + ';' + cache(m.l3) + ';' +
           std::to_string(m.memory_latency);
}

std::string
machineKey(const MachineConfig &m)
{
    return coreMachineKey(m) + ';' + std::to_string(m.sa_queues) +
           ';' + std::to_string(m.sa_ports) + ';' +
           std::to_string(m.sa_latency) + ';' +
           std::to_string(m.queue_capacity);
}

// ---------------------------------------------------------------------------
// PassManager

void
PassManager::addPass(std::string name, PassFn fn)
{
    passes_.push_back(Pass{std::move(name), std::move(fn)});
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const Pass &p : passes_)
        names.push_back(p.name);
    return names;
}

namespace
{

/** Extra between-pass checks (PipelineOptions::check_invariants). */
void
checkInvariants(const PipelineContext &ctx, const std::string &after)
{
    if (ctx.ir)
        verifyOrDie(ctx.ir->func, {},
                    "invariant check after pass '" + after + "'");
    if (ctx.pdg && ctx.partition) {
        auto problems = validatePartition(
            ctx.pdg->pdg, ctx.partition->partition,
            ctx.opts.scheduler == Scheduler::Dswp);
        if (!problems.empty())
            panic("invariant check after pass '", after,
                  "' failed for ", ctx.cellId(), ": ", problems[0]);
    }
}

void
emitPassRecord(PipelineContext &ctx, const PassStats &ps)
{
    if (!ctx.stats)
        return;
    JsonObject rec;
    rec.num("schema", int64_t{1})
        .str("type", "pass")
        .str("cell", ctx.cellId())
        .str("workload", ctx.workload->name)
        .str("scheduler", schedulerName(ctx.opts.scheduler))
        .boolean("coco", ctx.opts.use_coco)
        .str("pass", ps.pass)
        .num("wall_ms", ps.wall_ms)
        .boolean("cached", ps.cached);
    // Counters sorted by name: record key order is part of the
    // schema, independent of the order the pass added them in.
    auto counters = ps.counters;
    std::sort(counters.begin(), counters.end());
    for (const auto &[name, value] : counters)
        rec.num(name, static_cast<int64_t>(value));
    ctx.stats->write(rec);
}

void
emitCellRecord(PipelineContext &ctx, double total_ms)
{
    if (!ctx.stats)
        return;
    const PipelineResult &r = ctx.result;
    JsonObject rec;
    rec.num("schema", int64_t{1});
    rec.str("type", "cell")
        .str("cell", ctx.cellId())
        .str("workload", r.workload)
        .str("scheduler", r.scheduler)
        .boolean("coco", r.coco)
        .num("computation", r.computation)
        .num("duplicated_branches", r.duplicated_branches)
        .num("reg_comm", r.reg_comm)
        .num("mem_sync", r.mem_sync)
        .boolean("has_mem_deps", r.has_mem_deps)
        .num("st_cycles", r.st_cycles)
        .num("mt_cycles", r.mt_cycles)
        .num("speedup", r.speedup())
        .num("coco_iterations",
             static_cast<int64_t>(r.coco_iterations));
    if (r.autotuned)
        rec.boolean("autotuned", true)
            .num("baseline_mt_cycles", r.baseline_mt_cycles)
            .num("autotune_iterations",
                 static_cast<int64_t>(r.autotune_iterations))
            .num("autotune_moves_accepted",
                 static_cast<int64_t>(r.autotune_moves_accepted))
            .num("autotune_moves_rejected",
                 static_cast<int64_t>(r.autotune_moves_rejected))
            .boolean("autotune_converged", r.autotune_converged);
    rec.num("wall_ms", total_ms);
    ctx.stats->write(rec);
}

} // namespace

void
PassManager::run(PipelineContext &ctx) const
{
    using Clock = std::chrono::steady_clock;
    auto run_start = Clock::now();

    ctx.result = PipelineResult{};
    ctx.result.workload = ctx.workload->name;
    ctx.result.scheduler = schedulerName(ctx.opts.scheduler);
    ctx.result.coco = ctx.opts.use_coco;

    for (const Pass &pass : passes_) {
        PassStats ps;
        ps.pass = pass.name;
        double trace_ts = ctx.trace ? ctx.trace->nowUs() : 0.0;
        auto t0 = Clock::now();
        pass.run(ctx, ps);
        auto t1 = Clock::now();
        ps.wall_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (ctx.trace)
            ctx.trace->completeEvent(
                pass.name, "pass", TraceCollector::kPipelinePid,
                ctx.trace->laneForThisThread(), trace_ts,
                ctx.trace->nowUs() - trace_ts,
                {{"cell", ctx.cellId()}},
                {{"cached", ps.cached ? 1 : 0}});
        if (ctx.opts.check_invariants)
            checkInvariants(ctx, pass.name);
        emitPassRecord(ctx, ps);
        ctx.pass_stats.push_back(std::move(ps));
    }

    // Assemble the result from the final artifacts.
    if (ctx.partition)
        ctx.result.has_mem_deps = ctx.partition->has_mem_deps;
    if (ctx.plan)
        ctx.result.coco_iterations = ctx.plan->coco_iterations;
    if (ctx.mt_run) {
        ctx.result.computation = ctx.mt_run->computation;
        ctx.result.duplicated_branches = ctx.mt_run->duplicated_branches;
        ctx.result.reg_comm = ctx.mt_run->reg_comm;
        ctx.result.mem_sync = ctx.mt_run->mem_sync;
        ctx.result.mt_cycles = ctx.mt_run->cycles;
    }
    if (ctx.st_sim)
        ctx.result.st_cycles = ctx.st_sim->cycles;
    if (ctx.autotune) {
        const AutotuneResult &at = ctx.autotune->result;
        ctx.result.autotuned = true;
        ctx.result.baseline_mt_cycles = at.baseline_cycles;
        ctx.result.autotune_iterations = at.iterations;
        ctx.result.autotune_moves_accepted = at.moves_accepted;
        ctx.result.autotune_moves_rejected = at.moves_rejected;
        ctx.result.autotune_converged = at.converged;
    }

    double total_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - run_start)
                          .count();
    emitCellRecord(ctx, total_ms);
}

// ---------------------------------------------------------------------------
// The standard passes.

namespace
{

void
passBuildIr(PipelineContext &ctx, PassStats &ps)
{
    const Function &src = ctx.workload->func;
    GMT_ASSERT(src.numBlocks() > 0, "workload ", ctx.workload->name,
               " has no IR");
    ps.add("blocks", src.numBlocks());
    ps.add("instrs", src.numInstrs());
}

void
passEdgeSplit(PipelineContext &ctx, PassStats &ps)
{
    ctx.ir = ctx.cached<IrArtifact>(
        irKey(ctx),
        [&]() {
            auto art = std::make_shared<IrArtifact>();
            art->func = ctx.workload->func; // pipeline owns a copy
            splitCriticalEdges(art->func);
            return std::shared_ptr<const IrArtifact>(art);
        },
        ps);
    ps.add("blocks", ctx.ir->func.numBlocks());
    ps.add("instrs", ctx.ir->func.numInstrs());
}

void
passVerify(PipelineContext &ctx, PassStats &ps)
{
    // Always re-checked, cached IR included: this is the safety net
    // everything downstream assumes.
    verifyOrDie(ctx.ir->func, {}, "verify pass");
    ps.add("blocks", ctx.ir->func.numBlocks());
}

void
passProfile(PipelineContext &ctx, PassStats &ps)
{
    const Workload &w = *ctx.workload;
    ctx.profile = ctx.cached<ProfileArtifact>(
        profileKey(ctx),
        [&]() -> std::shared_ptr<const ProfileArtifact> {
            const Function &f = ctx.ir->func;
            auto art = std::make_shared<ProfileArtifact>();
            if (ctx.opts.static_profile) {
                auto dom = DominatorTree::dominators(f);
                LoopInfo loops(f, dom);
                art->profile = EdgeProfile::staticEstimate(f, loops);
            } else {
                // The paper profiles on the train input.
                MemoryImage mem = workloadMemory(w, /*ref=*/false);
                auto run = interpret(f, w.train_args, mem);
                art->profile = EdgeProfile::fromRun(f, run.profile);
                ps.add("dyn_instrs", static_cast<int64_t>(run.dyn_instrs));
            }
            return art;
        },
        ps);
    ps.add("static", ctx.opts.static_profile ? 1 : 0);
}

void
passPdg(PipelineContext &ctx, PassStats &ps)
{
    ctx.pdg = ctx.cached<PdgArtifact>(
        pdgKey(ctx),
        [&]() -> std::shared_ptr<const PdgArtifact> {
            const Function &f = ctx.ir->func;
            auto pdom = DominatorTree::postDominators(f);
            ControlDependence cd(f, pdom);
            Pdg pdg = buildPdg(f, cd);
            return std::make_shared<PdgArtifact>(PdgArtifact{
                ctx.ir, std::move(pdg), std::move(pdom), std::move(cd)});
        },
        ps);
    ps.add("arcs", ctx.pdg->pdg.numArcs());
}

void
passPartition(PipelineContext &ctx, PassStats &ps)
{
    ctx.partition = ctx.cached<PartitionArtifact>(
        partitionKey(ctx),
        [&]() -> std::shared_ptr<const PartitionArtifact> {
            const Pdg &pdg = ctx.pdg->pdg;
            auto art = std::make_shared<PartitionArtifact>();
            art->partition = runPartitioner(
                pdg, ctx.profile->profile,
                ctx.opts.scheduler == Scheduler::Gremio,
                ctx.opts.num_threads, nullptr, &art->prov);
            auto problems = validatePartition(
                pdg, art->partition,
                ctx.opts.scheduler == Scheduler::Dswp);
            if (!problems.empty())
                fatal("partition invalid for ", ctx.workload->name,
                      ": ", problems[0]);
            art->has_mem_deps = hasCrossThreadMemDep(pdg, art->partition);
            return art;
        },
        ps);
    ps.add("threads", ctx.partition->partition.num_threads);
    ps.add("cross_arcs",
           countCrossThreadArcs(ctx.pdg->pdg,
                                ctx.partition->partition));
}

void
passPlacement(PipelineContext &ctx, PassStats &ps)
{
    ctx.plan = ctx.cached<PlanArtifact>(
        planKey(ctx),
        [&]() -> std::shared_ptr<const PlanArtifact> {
            Placement p = placeCommunication(
                ctx.ir->func, ctx.pdg->pdg, ctx.partition->partition,
                ctx.pdg->cd, ctx.profile->profile,
                ctx.opts.use_coco ? &ctx.opts.coco : nullptr,
                CocoExec{.trace = ctx.trace});
            if (!p.problems.empty())
                fatal(ctx.opts.use_coco ? "COCO" : "MTCG",
                      " plan invalid for ", ctx.cellId(), ": ",
                      p.problems[0]);
            if (ctx.opts.use_coco) {
                ps.add("coco_warm_starts",
                       static_cast<int64_t>(p.warm_starts));
                ps.add("coco_cold_rebuilds",
                       static_cast<int64_t>(p.cold_rebuilds));
            }
            return std::make_shared<PlanArtifact>(
                PlanArtifact{std::move(p.plan), p.coco_iterations,
                             std::move(p.prov)});
        },
        ps);
    ps.add("placements",
           static_cast<int64_t>(ctx.plan->plan.placements.size()));
    ps.add("coco_iterations", ctx.plan->coco_iterations);
}

void
passMtcg(PipelineContext &ctx, PassStats &ps)
{
    ctx.prog = ctx.cached<ProgramArtifact>(
        mtcgKey(ctx),
        [&]() -> std::shared_ptr<const ProgramArtifact> {
            // Queue depth: 32-element queues for DSWP's pipeline
            // decoupling, single-element queues for GREMIO (paper
            // §4). Queues are one-per-placement here; the queue-alloc
            // pass multiplexes them onto an architected budget.
            auto art = std::make_shared<ProgramArtifact>();
            art->queue_of = generateMtProgram(
                ctx.ir->func, ctx.pdg->pdg, ctx.partition->partition,
                ctx.plan->plan, ctx.pdg->cd,
                resolvedQueueCapacity(ctx.opts), 0, art->prog,
                art->queues);
            return art;
        },
        ps);
    ps.add("threads",
           static_cast<int64_t>(ctx.prog->prog.threads.size()));
    ps.add("queues", ctx.prog->prog.num_queues);
}

void
passQueueAlloc(PipelineContext &ctx, PassStats &ps)
{
    if (ctx.opts.max_queues <= 0) {
        // One queue per placement (the paper's simplification).
        ps.add("queues", ctx.prog->prog.num_queues);
        return;
    }
    ctx.prog = ctx.cached<ProgramArtifact>(
        queueAllocKey(ctx),
        [&]() -> std::shared_ptr<const ProgramArtifact> {
            // The MTCG artifact numbers queues by placement index, so
            // remapping instruction queue ids through the allocation
            // is exactly the multiplexed program.
            auto art = std::make_shared<ProgramArtifact>();
            art->prog = ctx.prog->prog;
            art->queue_of = assignQueues(ctx.plan->plan,
                                         ctx.opts.max_queues, art->prog,
                                         art->queues);
            return art;
        },
        ps);
    ps.add("queues", ctx.prog->prog.num_queues);
    ps.add("max_queues", ctx.opts.max_queues);
}

void
passVerifyMt(PipelineContext &ctx, PassStats &ps)
{
    if (!ctx.opts.verify_mt) {
        ps.add("skipped", 1);
        return;
    }
    // Never cached: like the verify pass, this is the safety net the
    // execution stages assume, and it must re-check cached artifacts.
    MtVerifyResult res =
        verifyMtProgram(mtVerifyInput(ctx, ctx.opts.verify_hb));
    ps.add("diags", static_cast<int64_t>(res.diags.size()));
    ps.add("errors", res.errors());
    ps.add("warnings", res.warnings());
    ps.add("hb_pairs", res.hb_pairs);
    if (!res.ok())
        fatal("MT verification failed for ", ctx.cellId(), ":\n",
              res.render());
}

/** Record the published MT counts on a pass record. */
void
addCountStats(const MtRunArtifact &run, PassStats &ps)
{
    ps.add("computation", static_cast<int64_t>(run.computation));
    ps.add("communication",
           static_cast<int64_t>(run.reg_comm + run.mem_sync));
}

void
passMtRun(PipelineContext &ctx, PassStats &ps)
{
    const Workload &w = *ctx.workload;

    // Single-threaded reference run: the oracle's ground truth,
    // shared by every cell of the workload.
    PassStats sub;
    ctx.st_ref = ctx.cached<StRefArtifact>(
        "stref|" + w.cacheKey(),
        [&]() -> std::shared_ptr<const StRefArtifact> {
            auto art = std::make_shared<StRefArtifact>();
            art->final_mem = workloadMemory(w, /*ref=*/true);
            auto run =
                interpret(ctx.ir->func, w.ref_args, art->final_mem);
            art->live_outs = run.live_outs;
            ps.add("st_dyn_instrs", static_cast<int64_t>(run.dyn_instrs));
            return art;
        },
        sub);
    ps.add("stref_cached", sub.cached ? 1 : 0);
    if (ctx.opts.simulate) {
        // The sim pass runs the MT program once, as its oracle and
        // its counter; the reference is all this pass contributes.
        ps.cached = sub.cached;
        ps.add("mt_interp", 0);
        return;
    }

    auto st_ref = ctx.st_ref;
    auto prog = ctx.prog;
    ctx.mt_run = ctx.cached<MtRunArtifact>(
        "mtrun|" + queueAllocKey(ctx),
        [&, st_ref, prog]() -> std::shared_ptr<const MtRunArtifact> {
            MemoryImage mt_mem = workloadMemory(w, /*ref=*/true);
            auto mt = interpretMt(prog->prog, w.ref_args, mt_mem);
            if (mt.deadlock)
                fatal("deadlock in generated code for ", ctx.cellId());
            if (const char *what = outputMismatch(
                    mt.live_outs, mt_mem, mt.queues_drained,
                    st_ref->live_outs, st_ref->final_mem))
                fatal("MT output mismatch for ", ctx.cellId(), ": ", what);
            ps.add("mt_dyn_instrs",
                   static_cast<int64_t>(mt.totalDynamicInstrs()));
            auto art = std::make_shared<MtRunArtifact>();
            for (const ThreadStats &st : mt.stats)
                art->add(st);
            return art;
        },
        ps);
    ps.add("mt_interp", 1);
    addCountStats(*ctx.mt_run, ps);
}

/** One JSONL record per simulation actually executed (not cached). */
void
emitSimRecord(PipelineContext &ctx, const char *which,
              const SimResult &r)
{
    if (!ctx.stats)
        return;
    JsonObject rec;
    rec.num("schema", int64_t{1})
        .str("type", "sim")
        .str("cell", ctx.cellId())
        .str("which", which)
        .str("engine", simEngineName(r.engine.engine))
        .num("cycles", r.cycles)
        .num("iterations", r.engine.iterations)
        .num("skipped_cycles", r.engine.skipped)
        .num("skip_ratio", r.engine.skipRatio())
        .num("wall_ms", r.engine.wall_ms);
    ctx.stats->write(rec);
}

/** What this cell's checked runs reproduce: its ref input and the
 *  shared ST reference (mt-run's artifact, alive for the pass). */
SimCheck
simCheckOf(const PipelineContext &ctx)
{
    const Workload &w = *ctx.workload;
    return {ctx.opts.machine, ctx.opts.sim_engine, &w.ref_args,
            [&w]() { return workloadMemory(w, /*ref=*/true); },
            &ctx.st_ref->live_outs, &ctx.st_ref->final_mem};
}

void
passSim(PipelineContext &ctx, PassStats &ps)
{
    if (!ctx.opts.simulate) {
        ps.add("skipped", 1);
        return;
    }
    const Workload &w = *ctx.workload;
    const MachineConfig cfg = ctx.opts.machine;
    const SimEngine engine = ctx.opts.sim_engine;
    // The ST baseline never touches the sync array, so it is keyed
    // on the SA-free machine prefix and shared across SA sweeps.
    // The engines' results are bit-identical, but the artifacts also
    // carry engine meta-stats — keep the cache entries apart.
    const std::string esuf =
        engine == SimEngine::Reference ? "|ref" : "";
    const std::string core_mkey = coreMachineKey(cfg) + esuf;
    const std::string mkey = machineKey(cfg) + esuf;
    const std::string cell = ctx.cellId();
    const SimCheck chk = simCheckOf(ctx);

    PassStats st_sub;
    ctx.st_sim = ctx.cached<StSimArtifact>(
        "stsim|" + w.cacheKey() + '|' + core_mkey,
        [&]() -> std::shared_ptr<const StSimArtifact> {
            DecodedProgram original;
            original.threads.push_back(decodeThread(ctx.ir->func));
            original.queue_capacity = cfg.queue_capacity;
            SimResult st = simulateChecked(chk, original, "ST", cell);
            emitSimRecord(ctx, "st", st);
            auto art = std::make_shared<StSimArtifact>();
            art->cycles = st.cycles;
            art->engine = st.engine;
            return art;
        },
        st_sub);

    // The one execution of the MT program: its oracle (against the
    // shared ST reference), its cycles and the counter of the cell's
    // Fig. 7 counts, which the mt-run pass leaves to this pass.
    ctx.mt_run = ctx.cached<MtRunArtifact>(
        "mtsim|" + queueAllocKey(ctx) + '|' + mkey,
        [&]() -> std::shared_ptr<const MtRunArtifact> {
            SimResult mt = simulateChecked(chk, decodeProgram(ctx.prog->prog),
                                           "MT", cell);
            emitSimRecord(ctx, "mt", mt);
            auto art = std::make_shared<MtRunArtifact>();
            art->cycles = mt.cycles;
            art->engine = mt.engine;
            for (const CoreStats &core : mt.core)
                art->add(core.counts);
            return art;
        },
        ps);
    addCountStats(*ctx.mt_run, ps);
    ps.add("stsim_cached", st_sub.cached ? 1 : 0);
    ps.add("st_cycles", static_cast<int64_t>(ctx.st_sim->cycles));
    ps.add("mt_cycles", static_cast<int64_t>(ctx.mt_run->cycles));
    ps.add("engine_fast", engine == SimEngine::Fast ? 1 : 0);
    ps.add("mt_sim_iterations",
           static_cast<int64_t>(ctx.mt_run->engine.iterations));
    ps.add("mt_sim_skipped",
           static_cast<int64_t>(ctx.mt_run->engine.skipped));
}

/**
 * Environment the autotune library needs, pointing into this cell's
 * *upstream* artifacts (base profile, original function/PDG). Valid
 * only while the context's artifact shared_ptrs are alive — pass
 * functions call and consume it synchronously.
 */
AutotuneInputs
makeAutotuneInputs(const PipelineContext &ctx)
{
    const Workload &w = *ctx.workload;
    AutotuneInputs in;
    in.f = &ctx.ir->func;
    in.pdg = &ctx.pdg->pdg;
    in.cd = &ctx.pdg->cd;
    in.profile = &ctx.profile->profile;
    in.gremio = ctx.opts.scheduler == Scheduler::Gremio;
    in.num_threads = ctx.opts.num_threads;
    in.use_coco = ctx.opts.use_coco;
    in.coco = ctx.opts.coco;
    in.queue_capacity = resolvedQueueCapacity(ctx.opts);
    in.max_queues = ctx.opts.max_queues;
    in.machine = ctx.opts.machine;
    in.engine = ctx.opts.sim_engine;
    in.ref_args = &w.ref_args;
    in.make_memory = [&w]() { return workloadMemory(w, /*ref=*/true); };
    in.st_live_outs = &ctx.st_ref->live_outs;
    in.st_final_mem = &ctx.st_ref->final_mem;
    in.cell = ctx.cellId();
    return in;
}

/**
 * Close the profile -> schedule loop (src/autotune/): run the
 * feedback autotuner from this cell's schedule, then republish the
 * tuned schedule and its decision records into the partition/plan/
 * prog/mt_run slots so every downstream pass — obs-profile,
 * obs-provenance — and the assembled result describe the tuned
 * schedule. The baseline artifacts keep their un-suffixed cache
 * keys, so a baseline cell and its autotuned twin share the entire
 * codegen + simulation prefix (which is what makes warm iterations
 * cheap).
 */
void
passAutotune(PipelineContext &ctx, PassStats &ps)
{
    if (!ctx.opts.autotune) {
        ps.add("skipped", 1);
        return;
    }
    GMT_ASSERT(ctx.opts.simulate,
               "autotune requires the timing simulation");
    GMT_ASSERT(ctx.mt_run && ctx.st_ref,
               "autotune needs the sim pass's artifacts");

    auto part = ctx.partition;
    auto plan = ctx.plan;
    auto prog = ctx.prog;
    auto mt_run = ctx.mt_run;
    ctx.autotune = ctx.cached<AutotuneArtifact>(
        autotuneKey(ctx),
        [&]() -> std::shared_ptr<const AutotuneArtifact> {
            AutotuneInputs in = makeAutotuneInputs(ctx);
            AutotuneSchedule baseline;
            baseline.partition = part->partition;
            baseline.plan = plan->plan;
            baseline.plan_coco_iterations = plan->coco_iterations;
            baseline.prog = prog->prog;
            baseline.queue_of = prog->queue_of;
            baseline.cycles = mt_run->cycles;
            baseline.plan_prov = plan->prov;
            baseline.queue_prov = prog->queues;
            auto art = std::make_shared<AutotuneArtifact>();
            art->result = autotuneSchedule(in, baseline,
                                           ctx.opts.autotune_opts);
            art->moves_json = autotuneMovesJson(art->result);
            ps.add("coco_warm_starts",
                   static_cast<int64_t>(art->result.coco_warm_starts));
            ps.add("coco_cold_rebuilds",
                   static_cast<int64_t>(art->result.coco_cold_rebuilds));
            return art;
        },
        ps);

    // Republish the tuned schedule, with its decision records,
    // downstream.
    const AutotuneResult &r = ctx.autotune->result;
    const AutotuneSchedule &s = r.final_schedule;
    ctx.partition = std::make_shared<PartitionArtifact>(
        PartitionArtifact{s.partition,
                          hasCrossThreadMemDep(ctx.pdg->pdg, s.partition),
                          r.partition_prov});
    ctx.plan = std::make_shared<PlanArtifact>(
        PlanArtifact{s.plan, s.plan_coco_iterations, s.plan_prov});
    ctx.prog = std::make_shared<ProgramArtifact>(
        ProgramArtifact{s.prog, s.queue_of, s.queue_prov});
    ctx.mt_run = std::make_shared<MtRunArtifact>(
        MtRunArtifact{.computation = r.computation,
                      .duplicated_branches = r.duplicated_branches,
                      .reg_comm = r.reg_comm,
                      .mem_sync = r.mem_sync,
                      .cycles = s.cycles,
                      .engine = {}});

    ps.add("iterations", r.iterations);
    ps.add("moves_accepted", r.moves_accepted);
    ps.add("moves_rejected", r.moves_rejected);
    ps.add("converged", r.converged ? 1 : 0);
    ps.add("baseline_cycles",
           static_cast<int64_t>(r.baseline_cycles));
    ps.add("tuned_cycles", static_cast<int64_t>(s.cycles));
}

/**
 * Render one profiled cell's simulator lanes into the trace: one
 * process per cell, one lane per core carrying its compute/stall
 * intervals, one counter track per queue. Timestamps are simulated
 * cycles rendered as microseconds — a different timebase than the
 * pipeline pid's wall clock, which is why the cell gets its own pid.
 * Dense queue tracks are stride-sampled down to ~4k points to keep
 * trace files loadable; the last sample is always kept so the final
 * occupancy is right.
 */
void
emitSimTrace(PipelineContext &ctx, const ObsProfileArtifact &obs)
{
    if (!ctx.trace)
        return;
    TraceCollector &tc = *ctx.trace;
    const SimTimeline &tl = obs.timeline;
    int pid = tc.registerProcess("sim " + ctx.cellId());
    for (size_t c = 0; c < tl.core.size(); ++c) {
        tc.nameThread(pid, static_cast<int64_t>(c),
                      "core " + std::to_string(c));
        for (const CoreInterval &iv : tl.core[c])
            tc.completeEvent(coreStateName(iv.state), "sim", pid,
                             static_cast<int64_t>(c),
                             static_cast<double>(iv.begin),
                             static_cast<double>(iv.end - iv.begin));
    }
    constexpr size_t kMaxQueueSamples = 4096;
    for (size_t q = 0; q < tl.queue.size(); ++q) {
        const std::vector<QueueSample> &samples = tl.queue[q];
        if (samples.empty())
            continue;
        const size_t stride =
            samples.size() > kMaxQueueSamples
                ? (samples.size() + kMaxQueueSamples - 1) /
                      kMaxQueueSamples
                : 1;
        const std::string name = "queue " + std::to_string(q);
        for (size_t i = 0; i < samples.size(); i += stride)
            tc.counterEvent(name, pid,
                            static_cast<double>(samples[i].cycle),
                            "occupancy", samples[i].occupancy);
        if (stride > 1 && (samples.size() - 1) % stride != 0)
            tc.counterEvent(
                name, pid,
                static_cast<double>(samples.back().cycle),
                "occupancy", samples.back().occupancy);
    }
}

void
passObsProfile(PipelineContext &ctx, PassStats &ps)
{
    // An attached trace collector needs the timeline even when the
    // caller did not ask for stall profiling explicitly. Counts-only
    // cells have no timing run to attribute.
    if ((!ctx.opts.profile_stalls && !ctx.trace) || !ctx.opts.simulate) {
        ps.add("skipped", 1);
        return;
    }
    ctx.obs = ctx.cached<ObsProfileArtifact>(
        obsProfileKey(ctx),
        [&]() -> std::shared_ptr<const ObsProfileArtifact> {
            TimelineBuilder timeline;
            auto art = std::make_shared<ObsProfileArtifact>();
            art->report =
                profileChecked(simCheckOf(ctx), ctx.prog->prog,
                               ctx.plan->plan, ctx.prog->queue_of,
                               ctx.mt_run->cycles, ctx.cellId(), &timeline);
            art->timeline = timeline.take();
            return art;
        },
        ps);
    ps.add("stall_cycles",
           static_cast<int64_t>(ctx.obs->report.totalStallCycles()));
    ps.add("queues",
           static_cast<int64_t>(ctx.obs->report.queues.size()));
    ps.add("hot_blocks",
           static_cast<int64_t>(ctx.obs->report.blocks.size()));
    // Lanes are emitted per cell even when the artifact was cached:
    // the trace belongs to this run, the artifact to the cache.
    emitSimTrace(ctx, *ctx.obs);
}

/**
 * Assemble the cell's decision provenance from the records its
 * artifacts carry: each was built by the call that decided the
 * artifact (partitioner, COCO or the default plan, the queue
 * binding), or republished with the tuned schedule by the autotune
 * pass. One call makes a record and its artifact, so the record
 * describes exactly the schedule the cell ran.
 */
void
passObsProvenance(PipelineContext &ctx, PassStats &ps)
{
    if (!ctx.opts.record_provenance) {
        ps.add("skipped", 1);
        return;
    }
    ctx.prov = ctx.cached<ProvenanceArtifact>(
        provenanceKey(ctx),
        [&]() -> std::shared_ptr<const ProvenanceArtifact> {
            auto art = std::make_shared<ProvenanceArtifact>();
            Provenance &p = art->prov;
            p.cell = ctx.cellId();
            p.workload = ctx.workload->name;
            p.scheduler = schedulerName(ctx.opts.scheduler);
            p.coco = ctx.opts.use_coco;
            p.num_threads = ctx.opts.num_threads;
            p.partition = ctx.partition->prov;
            p.placement = ctx.plan->prov;
            p.queues = ctx.prog->queues;
            art->canonical_json = provenanceJson(p);
            return art;
        },
        ps);
    ps.add("units",
           static_cast<int64_t>(ctx.prov->prov.partition.units.size()));
    ps.add("placements",
           static_cast<int64_t>(
               ctx.prov->prov.placement.placements.size()));
    ps.add("elided",
           static_cast<int64_t>(ctx.prov->prov.placement.elided.size()));
    ps.add("queues",
           static_cast<int64_t>(ctx.prov->prov.queues.queues.size()));
    ps.add("json_bytes",
           static_cast<int64_t>(ctx.prov->canonical_json.size()));
}

} // namespace

PassManager
PassManager::codegenPipeline()
{
    PassManager pm;
    pm.addPass("build-ir", passBuildIr);
    pm.addPass("edge-split", passEdgeSplit);
    pm.addPass("verify", passVerify);
    pm.addPass("profile", passProfile);
    pm.addPass("pdg", passPdg);
    pm.addPass("partition", passPartition);
    pm.addPass("placement", passPlacement);
    pm.addPass("mtcg", passMtcg);
    pm.addPass("queue-alloc", passQueueAlloc);
    return pm;
}

PassManager
PassManager::standardPipeline()
{
    PassManager pm = codegenPipeline();
    pm.addPass("verify-mt", passVerifyMt);
    pm.addPass("mt-run", passMtRun);
    pm.addPass("sim", passSim);
    pm.addPass("autotune", passAutotune);
    pm.addPass("obs-profile", passObsProfile);
    pm.addPass("obs-provenance", passObsProvenance);
    return pm;
}

} // namespace gmt
