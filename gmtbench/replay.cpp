#include "replay.hpp"

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/edge_profile.hpp"
#include "autotune/autotune.hpp"
#include "coco/coco.hpp"
#include "coco/validate.hpp"
#include "driver/pass_manager.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/comm_plan.hpp"
#include "mtcg/mtcg.hpp"
#include "mtverify/mtverify.hpp"
#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/mt_interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "sim/decoded_program.hpp"

namespace gmtbench
{

using namespace gmt;

namespace
{

/** Stages shared by every cell of one kernel. */
struct KernelState
{
    std::unique_ptr<Function> f; ///< edge-split copy; the PDG points in
    std::optional<EdgeProfile> profile;
    std::optional<DominatorTree> pdom;
    std::optional<ControlDependence> cd;
    std::optional<Pdg> pdg;

    bool st_ref = false;
    std::vector<int64_t> live_outs;
    MemoryImage final_mem;

    std::optional<DecodedProgram> st_decoded;
    std::optional<uint64_t> st_cycles;
};

/** One partition per (kernel, scheduler). */
struct PartitionState
{
    std::optional<ThreadPartition> partition;
    bool has_mem_deps = false;
};

/** One plan + program (and its runs) per (kernel, scheduler, COCO). */
struct ProgramState
{
    std::optional<CommPlan> plan;
    int coco_iterations = 0;
    std::optional<MtProgram> prog;
    std::vector<int> queue_of;

    bool ran = false;
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0;
    uint64_t mem_sync = 0;

    std::optional<DecodedProgram> decoded;
    std::optional<uint64_t> mt_cycles;
};

bool
hasCrossMemDep(const Pdg &pdg, const ThreadPartition &p)
{
    for (const auto &arc : pdg.arcs())
        if (arc.kind == DepKind::Memory &&
            p.threadOf(arc.src) != p.threadOf(arc.dst))
            return true;
    return false;
}

class Replayer
{
  public:
    Replayer(const Inputs &in, SpanRecorder &rec) : in_(in), rec_(rec) {}

    ReplayOutput
    run()
    {
        ScopedSpan batch(rec_, "batch", "");
        for (const ExperimentCell &cell : in_.cells) {
            if (in_.kind == Kind::Compile) {
                // No cache: every compile cell starts from scratch.
                kernels_.clear();
                parts_.clear();
                progs_.clear();
            }
            runCell(cell);
        }
        return std::move(out_);
    }

  private:
    MemoryImage
    tracedMemory(const Workload &w, bool ref, const std::string &id)
    {
        ScopedSpan s(rec_, "runtime.mem_fill", id);
        ++out_.counts.mem_fills;
        return inputMemory(w, ref);
    }

    void
    countSim(const SimResult &r)
    {
        LayerCounts &c = out_.counts;
        ++c.sim_runs;
        c.sim_cycles += r.cycles;
        c.sim_swept += r.engine.iterations;
        c.sim_skipped += r.engine.skipped;
    }

    void runCell(const ExperimentCell &cell);

    const Inputs &in_;
    SpanRecorder &rec_;
    ReplayOutput out_;
    std::map<std::string, KernelState> kernels_;
    std::map<std::string, PartitionState> parts_;
    std::map<std::string, ProgramState> progs_;
    std::map<std::string, AutotuneResult> tuned_;
};

void
Replayer::runCell(const ExperimentCell &cell)
{
    const Workload &w = cell.workload;
    const PipelineOptions &o = cell.opts;
    const std::string id = cellId(cell);
    LayerCounts &c = out_.counts;
    ScopedSpan cell_span(rec_, "cell", id);

    const std::string kkey = w.cacheKey();
    const std::string pkey = kkey + '|' + schedulerName(o.scheduler);
    const std::string gkey = pkey + (o.use_coco ? "|coco" : "|mtcg");
    KernelState &k = kernels_[kkey];
    PartitionState &p = parts_[pkey];
    ProgramState &g = progs_[gkey];

    // edge-split (shared) and verify (every cell).
    if (!k.f) {
        ScopedSpan s(rec_, "ir", id);
        k.f = std::make_unique<Function>(w.func);
        splitCriticalEdges(*k.f);
        c.ir_instrs += static_cast<uint64_t>(k.f->numInstrs());
    }
    const Function &f = *k.f;
    {
        ScopedSpan s(rec_, "ir", id);
        verifyOrDie(f, {}, "verify pass");
    }

    // profile on the train input.
    if (!k.profile) {
        MemoryImage mem = tracedMemory(w, false, id);
        StRunResult run;
        {
            ScopedSpan s(rec_, "runtime.st", id);
            run = interpret(f, w.train_args, mem);
        }
        c.st_dyn_instrs += run.dyn_instrs;
        ScopedSpan s(rec_, "analysis", id);
        k.profile.emplace(EdgeProfile::fromRun(f, run.profile));
    }

    // PDG with its CFG analyses.
    if (!k.pdg) {
        {
            ScopedSpan s(rec_, "analysis", id);
            k.pdom.emplace(DominatorTree::postDominators(f));
            k.cd.emplace(f, *k.pdom);
        }
        ScopedSpan s(rec_, "pdg", id);
        k.pdg.emplace(buildPdg(f));
        c.pdg_arcs += static_cast<uint64_t>(k.pdg->numArcs());
        c.pdg_instrs += static_cast<uint64_t>(f.numInstrs());
    }
    const Pdg &pdg = *k.pdg;
    const ControlDependence &cd = *k.cd;

    // partition.
    {
        ScopedSpan s(rec_, "partition", id);
        if (!p.partition) {
            const bool dswp = o.scheduler == Scheduler::Dswp;
            p.partition.emplace(
                dswp ? dswpPartition(pdg, *k.profile,
                                     {.num_threads = o.num_threads})
                     : gremioPartition(pdg, *k.profile,
                                       {.num_threads = o.num_threads}));
            auto problems = validatePartition(pdg, *p.partition, dswp);
            if (!problems.empty())
                throw std::runtime_error("partition invalid for " + id +
                                         ": " + problems[0]);
            p.has_mem_deps = hasCrossMemDep(pdg, *p.partition);
        }
        c.cross_arcs += static_cast<uint64_t>(
            countCrossThreadArcs(pdg, *p.partition));
    }
    const ThreadPartition &part = *p.partition;

    // placement: COCO or the default MTCG plan.
    if (!g.plan) {
        if (o.use_coco) {
            ScopedSpan s(rec_, "coco", id);
            CocoResult coco =
                cocoOptimize(f, pdg, part, cd, *k.profile, o.coco,
                             CocoExec{nullptr, o.coco_jobs, nullptr});
            auto problems = validatePlan(f, pdg, part, cd, coco.plan);
            if (!problems.empty())
                throw std::runtime_error("COCO plan invalid for " + id +
                                         ": " + problems[0]);
            g.plan.emplace(std::move(coco.plan));
            g.coco_iterations = coco.iterations;
            c.coco_iterations += static_cast<uint64_t>(coco.iterations);
            c.coco_cut_solves += coco.warm_starts + coco.cold_rebuilds;
        } else {
            ScopedSpan s(rec_, "mtcg", id);
            g.plan.emplace(defaultMtcgPlan(f, pdg, part, cd));
        }
    }

    // mtcg (one queue per placement: queue-alloc is the identity).
    if (!g.prog) {
        ScopedSpan s(rec_, "mtcg", id);
        MtcgOptions mo;
        mo.queue_capacity = resolvedQueueCapacity(o);
        mo.max_queues = 0;
        g.prog.emplace(runMtcg(f, pdg, part, *g.plan, cd, mo));
        g.queue_of.resize(g.plan->placements.size());
        for (size_t i = 0; i < g.queue_of.size(); ++i)
            g.queue_of[i] = static_cast<int>(i);
        c.mtcg_emitted_instrs += countInstrs(*g.prog);
        c.mtcg_queues += static_cast<uint64_t>(g.prog->num_queues);
    }
    const MtProgram &prog = *g.prog;

    // verify-mt: never shared, every cell re-checks its program.
    const bool compile = in_.kind == Kind::Compile;
    MtVerifyResult vres;
    if (compile || o.verify_mt) {
        ScopedSpan s(rec_, "mtverify", id);
        MtVerifyInput vin;
        vin.orig = &f;
        vin.pdg = &pdg;
        vin.partition = &part;
        vin.plan = &*g.plan;
        vin.queue_of = &g.queue_of;
        vin.prog = &prog;
        vin.check_hb = compile || o.verify_hb;
        vres = verifyMtProgram(vin);
        c.mtverify_hb_pairs += static_cast<uint64_t>(vres.hb_pairs);
        c.mtverify_instrs += countInstrs(prog);
        if (!compile && !vres.ok())
            throw std::runtime_error("MT verification failed for " + id);
    }
    if (compile) {
        CompileResult r;
        r.emitted_instrs = countInstrs(prog);
        r.emitted_comm = countComm(prog);
        r.queues = prog.num_queues;
        r.coco_iterations = g.coco_iterations;
        r.hb_pairs = vres.hb_pairs;
        r.verify_errors = vres.errors();
        out_.compile.push_back(r);
        return;
    }

    // mt-run: the ST reference (shared) and the MT run with its oracle.
    if (!k.st_ref) {
        k.final_mem = tracedMemory(w, true, id);
        ScopedSpan s(rec_, "runtime.st", id);
        StRunResult run = interpret(f, w.ref_args, k.final_mem);
        k.live_outs = run.live_outs;
        c.st_dyn_instrs += run.dyn_instrs;
        k.st_ref = true;
    }
    if (!g.ran) {
        MemoryImage mem = tracedMemory(w, true, id);
        ScopedSpan s(rec_, "runtime.mt", id);
        MtRunResult mt = interpretMt(prog, w.ref_args, mem);
        if (mt.deadlock || !mt.queues_drained ||
            mt.live_outs != k.live_outs || !(mem == k.final_mem))
            throw std::runtime_error("MT output mismatch for " + id);
        for (const ThreadStats &st : mt.stats) {
            g.computation += st.computation;
            g.duplicated_branches += st.duplicated_branches;
            g.reg_comm += st.produces + st.consumes;
            g.mem_sync += st.produce_syncs + st.consume_syncs;
        }
        c.mt_dyn_instrs += mt.totalDynamicInstrs();
        c.mt_comm_instrs += mt.totalCommunication();
        g.ran = true;
    }

    // sim: decode and simulate the ST original (shared) and this program.
    if (!k.st_decoded) {
        ScopedSpan s(rec_, "sim.decode", id);
        MtProgram st;
        st.threads.push_back(f);
        st.num_queues = 0;
        k.st_decoded.emplace(decodeProgram(st));
    }
    if (!k.st_cycles) {
        MemoryImage mem = tracedMemory(w, true, id);
        ScopedSpan s(rec_, "sim.st", id);
        SimResult r = CmpSimulator(o.machine, o.sim_engine)
                          .run(*k.st_decoded, w.ref_args, mem);
        if (r.live_outs != k.live_outs)
            throw std::runtime_error("ST simulation mismatch for " + id);
        countSim(r);
        k.st_cycles = r.cycles;
    }
    if (!g.decoded) {
        ScopedSpan s(rec_, "sim.decode", id);
        g.decoded.emplace(decodeProgram(prog));
    }
    if (!g.mt_cycles) {
        MemoryImage mem = tracedMemory(w, true, id);
        ScopedSpan s(rec_, "sim.mt", id);
        SimResult r = CmpSimulator(o.machine, o.sim_engine)
                          .run(*g.decoded, w.ref_args, mem);
        if (r.live_outs != k.live_outs)
            throw std::runtime_error("MT simulation mismatch for " + id);
        countSim(r);
        g.mt_cycles = r.cycles;
    }

    PipelineResult res;
    res.workload = w.name;
    res.scheduler = schedulerName(o.scheduler);
    res.coco = o.use_coco;
    res.has_mem_deps = p.has_mem_deps;
    res.coco_iterations = g.coco_iterations;
    res.computation = g.computation;
    res.duplicated_branches = g.duplicated_branches;
    res.reg_comm = g.reg_comm;
    res.mem_sync = g.mem_sync;
    res.st_cycles = *k.st_cycles;
    res.mt_cycles = *g.mt_cycles;

    if (o.autotune) {
        auto it = tuned_.find(gkey);
        if (it == tuned_.end()) {
            ScopedSpan s(rec_, "autotune", id);
            AutotuneInputs ain;
            ain.f = &f;
            ain.pdg = &pdg;
            ain.cd = &cd;
            ain.profile = &*k.profile;
            ain.gremio = o.scheduler == Scheduler::Gremio;
            ain.num_threads = o.num_threads;
            ain.use_coco = o.use_coco;
            ain.coco = o.coco;
            ain.queue_capacity = resolvedQueueCapacity(o);
            ain.max_queues = o.max_queues;
            ain.machine = o.machine;
            ain.engine = o.sim_engine;
            ain.ref_args = &w.ref_args;
            ain.make_memory = [&w]() { return inputMemory(w, true); };
            ain.st_live_outs = &k.live_outs;
            ain.st_final_mem = &k.final_mem;
            ain.coco_jobs = o.coco_jobs;
            AutotuneSchedule baseline;
            baseline.partition = part;
            baseline.plan = *g.plan;
            baseline.plan_coco_iterations = g.coco_iterations;
            baseline.prog = prog;
            baseline.queue_of = g.queue_of;
            baseline.cycles = *g.mt_cycles;
            AutotuneResult at =
                autotuneSchedule(ain, baseline, o.autotune_opts);
            autotuneMovesJson(at);
            c.at_rounds += static_cast<uint64_t>(at.iterations);
            c.at_candidates += at.moves.size();
            c.at_accepted += static_cast<uint64_t>(at.moves_accepted);
            it = tuned_.emplace(gkey, std::move(at)).first;
        }
        const AutotuneResult &at = it->second;
        const AutotuneSchedule &s = at.final_schedule;
        {
            // The autotune pass republishes a decode of the tuned
            // program on every cell, cached or not.
            ScopedSpan d(rec_, "sim.decode", id);
            decodeProgram(s.prog);
        }
        res.has_mem_deps = hasCrossMemDep(pdg, s.partition);
        res.coco_iterations = s.plan_coco_iterations;
        res.computation = at.computation;
        res.duplicated_branches = at.duplicated_branches;
        res.reg_comm = at.reg_comm;
        res.mem_sync = at.mem_sync;
        res.mt_cycles = s.cycles;
        res.autotuned = true;
        res.baseline_mt_cycles = at.baseline_cycles;
        res.autotune_iterations = at.iterations;
        res.autotune_moves_accepted = at.moves_accepted;
        res.autotune_moves_rejected = at.moves_rejected;
        res.autotune_converged = at.converged;
    }
    out_.results.push_back(std::move(res));
}

} // namespace

ReplayOutput
replayBatch(const Inputs &in, SpanRecorder &rec)
{
    return Replayer(in, rec).run();
}

} // namespace gmtbench
