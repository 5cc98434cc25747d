#include "cells.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "driver/pass_manager.hpp"
#include "ir/edge_split.hpp"
#include "mtverify/mtverify.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/mt_interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "sim/decoded_program.hpp"
#include "support/rng.hpp"
#include "workloads/generate.hpp"

namespace gmtbench
{

using namespace gmt;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * Compile cells come from one pool of generated candidates per seed,
 * from which each size band keeps the candidates closest to its target.
 * Compile cost grows about as instrs^1.8 with ~12% scatter at equal
 * size, and generated sizes spread over two orders of magnitude, so a
 * fixed pool and narrow bands of several cells each make both the batch
 * cost and the set-up cost barely depend on the seed.
 */
struct SizeBand
{
    int target_instrs;
    int cells; ///< kernels kept per batch (smoke: 1 per band)
};

constexpr SizeBand kBands[] = {{350, 16}, {700, 10}, {1300, 6}};
constexpr int kPoolSize = 400;
constexpr GenOptions kGenOptions{.max_depth = 4, .max_stmts = 8};

/** Does the single-threaded interpreter run @p w on both inputs? */
bool
screens(const Workload &w)
{
    try {
        for (bool ref : {false, true}) {
            MemoryImage mem = inputMemory(w, ref);
            interpret(w.func, ref ? w.ref_args : w.train_args, mem);
        }
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

void
addMatrix(std::vector<ExperimentCell> &cells, const Workload &w,
          bool autotune_matrix)
{
    for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
        for (bool flag : {false, true}) {
            PipelineOptions opts;
            opts.scheduler = sched;
            if (autotune_matrix) {
                opts.use_coco = true;
                opts.autotune = flag;
            } else {
                opts.use_coco = flag;
            }
            cells.push_back({w, opts});
        }
    }
}

} // namespace

MemoryImage
inputMemory(const Workload &w, bool ref)
{
    MemoryImage mem;
    mem.alloc(w.mem_cells);
    if (w.fill)
        w.fill(mem, ref);
    return mem;
}

Inputs
makeInputs(Kind kind, uint64_t seed, bool smoke)
{
    Inputs in;
    in.kind = kind;
    in.seed = seed;

    if (kind != Kind::Compile) {
        auto t0 = Clock::now();
        std::vector<Workload> kernels = allWorkloads();
        in.generate_ms = msSince(t0);
        if (smoke)
            kernels.resize(2);
        for (const Workload &w : kernels)
            addMatrix(in.cells, w, kind == Kind::Autotune);
        // Results do not depend on cell order; the seed only picks it.
        Rng rng(seed);
        for (size_t i = in.cells.size(); i > 1; --i)
            std::swap(in.cells[i - 1], in.cells[rng.nextBelow(i)]);
        return in;
    }

    auto generate = [&](uint64_t s) {
        auto t0 = Clock::now();
        Workload w = generateWorkload(s, kGenOptions);
        in.generate_ms += msSince(t0);
        return w;
    };
    // (instrs, generator seed); only the kept cells are generated twice.
    std::vector<std::pair<int, uint64_t>> pool;
    for (int i = 0; i < kPoolSize; ++i) {
        const uint64_t s = seed * 100000 + static_cast<uint64_t>(i);
        pool.emplace_back(generate(s).func.numInstrs(), s);
    }
    std::vector<bool> taken(pool.size(), false);
    for (const SizeBand &band : kBands) {
        std::vector<size_t> order(pool.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        auto dist = [&](size_t i) {
            return std::abs(pool[i].first - band.target_instrs);
        };
        // Closest to the target first; ties keep generation order.
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t x, size_t y) { return dist(x) < dist(y); });
        const int want = smoke ? 1 : band.cells;
        int got = 0;
        for (size_t i = 0; i < order.size() && got < want; ++i) {
            if (taken[order[i]])
                continue;
            taken[order[i]] = true;
            Workload w = generate(pool[order[i]].second);
            if (!screens(w)) {
                ++in.replaced_seeds; // the next candidate takes its place
                continue;
            }
            addMatrix(in.cells, w, false);
            ++got;
        }
        if (got < want)
            throw std::runtime_error(
                "compile band " + std::to_string(band.target_instrs) +
                " screened too few cells for seed " + std::to_string(seed));
    }
    for (ExperimentCell &c : in.cells) {
        c.opts.simulate = false;
        c.opts.verify_mt = false; // verified explicitly, as gmt-lint does
    }
    return in;
}

std::string
cellId(const ExperimentCell &cell)
{
    return PipelineContext(cell.workload, cell.opts).cellId();
}

uint64_t
countComm(const MtProgram &prog)
{
    uint64_t n = 0;
    for (const Function &tf : prog.threads)
        for (InstrId i = 0; i < tf.numInstrs(); ++i)
            n += isCommunication(tf.instr(i).op) ? 1 : 0;
    return n;
}

uint64_t
countInstrs(const MtProgram &prog)
{
    uint64_t n = 0;
    for (const Function &tf : prog.threads)
        n += static_cast<uint64_t>(tf.numInstrs());
    return n;
}

std::vector<CompileResult>
runCompileBatch(const Inputs &in, std::vector<MtProgram> *programs)
{
    const PassManager pm = PassManager::codegenPipeline();
    std::vector<CompileResult> out;
    out.reserve(in.cells.size());
    for (const ExperimentCell &cell : in.cells) {
        PipelineContext ctx(cell.workload, cell.opts);
        pm.run(ctx);
        MtVerifyInput vin;
        vin.orig = &ctx.ir->func;
        vin.pdg = &ctx.pdg->pdg;
        vin.partition = &ctx.partition->partition;
        vin.plan = &ctx.plan->plan;
        vin.queue_of = &ctx.prog->queue_of;
        vin.prog = &ctx.prog->prog;
        vin.check_hb = true;
        MtVerifyResult res = verifyMtProgram(vin);

        CompileResult r;
        r.emitted_instrs = countInstrs(ctx.prog->prog);
        r.emitted_comm = countComm(ctx.prog->prog);
        r.queues = ctx.prog->prog.num_queues;
        r.coco_iterations = ctx.plan->coco_iterations;
        r.hb_pairs = res.hb_pairs;
        r.verify_errors = res.errors();
        out.push_back(r);
        if (programs)
            programs->push_back(ctx.prog->prog);
    }
    return out;
}

std::vector<Outcome>
pipelineOutcomes(const Inputs &in, const std::vector<PipelineResult> &results,
                 ExperimentRunner &runner)
{
    std::vector<Outcome> out;
    for (size_t i = 0; i < in.cells.size(); ++i) {
        const ExperimentCell &cell = in.cells[i];
        const PipelineResult &r = results.at(i);
        PipelineContext ctx(cell.workload, cell.opts);
        Outcome o;
        o.id = ctx.cellId();
        o.st_cycles = r.st_cycles;
        o.mt_cycles = r.mt_cycles;
        o.computation = r.computation;
        o.duplicated_branches = r.duplicated_branches;
        o.reg_comm = r.reg_comm;
        o.mem_sync = r.mem_sync;
        o.moves_accepted = r.autotune_moves_accepted;
        // Look the cell's final program up in the runner's cache; a
        // miss means the batch did not produce it.
        const std::string missing = "no cached program for " + o.id;
        if (cell.opts.autotune) {
            auto at = runner.cache().getOrCompute<AutotuneArtifact>(
                autotuneKey(ctx),
                [&]() -> std::shared_ptr<const AutotuneArtifact> {
                    throw std::runtime_error(missing);
                });
            o.emitted_comm = countComm(at->result.final_schedule.prog);
        } else {
            auto prog = runner.cache().getOrCompute<ProgramArtifact>(
                mtcgKey(ctx),
                [&]() -> std::shared_ptr<const ProgramArtifact> {
                    throw std::runtime_error(missing);
                });
            o.emitted_comm = countComm(prog->prog);
        }
        out.push_back(std::move(o));
    }
    return out;
}

std::vector<Outcome>
compileOutcomes(const Inputs &in, const std::vector<CompileResult> &results,
                const std::vector<MtProgram> &programs,
                std::vector<std::string> &failures)
{
    struct StRef
    {
        std::vector<int64_t> live_outs;
        MemoryImage final_mem;
        uint64_t cycles = 0;
    };
    const MachineConfig machine = MachineConfig::paperDefault();
    std::map<std::string, StRef> st_refs;
    std::vector<Outcome> out;
    for (size_t i = 0; i < in.cells.size(); ++i) {
        const ExperimentCell &cell = in.cells[i];
        const Workload &w = cell.workload;
        const std::string id = cellId(cell);
        try {
            if (results.at(i).verify_errors != 0)
                throw std::runtime_error("verify-mt reported errors");
            auto it = st_refs.find(w.name);
            if (it == st_refs.end()) {
                StRef ref;
                MtProgram st;
                st.threads.push_back(w.func);
                splitCriticalEdges(st.threads[0]);
                ref.final_mem = inputMemory(w, true);
                ref.live_outs =
                    interpret(st.threads[0], w.ref_args, ref.final_mem)
                        .live_outs;
                MemoryImage mem = inputMemory(w, true);
                SimResult sim = CmpSimulator(machine).run(
                    decodeProgram(st), w.ref_args, mem);
                if (sim.live_outs != ref.live_outs)
                    throw std::runtime_error("ST simulation mismatch");
                ref.cycles = sim.cycles;
                it = st_refs.emplace(w.name, std::move(ref)).first;
            }
            const StRef &ref = it->second;
            const MtProgram &prog = programs.at(i);

            MemoryImage mt_mem = inputMemory(w, true);
            MtRunResult mt = interpretMt(prog, w.ref_args, mt_mem);
            if (mt.deadlock || !mt.queues_drained)
                throw std::runtime_error("MT run deadlocked or left "
                                         "queues undrained");
            if (mt.live_outs != ref.live_outs || !(mt_mem == ref.final_mem))
                throw std::runtime_error("MT output differs from ST");

            MemoryImage sim_mem = inputMemory(w, true);
            SimResult sim = CmpSimulator(machine).run(decodeProgram(prog),
                                                      w.ref_args, sim_mem);
            if (sim.live_outs != ref.live_outs)
                throw std::runtime_error("MT simulation mismatch");

            Outcome o;
            o.id = id;
            o.st_cycles = ref.cycles;
            o.mt_cycles = sim.cycles;
            for (const ThreadStats &s : mt.stats) {
                o.computation += s.computation;
                o.duplicated_branches += s.duplicated_branches;
                o.reg_comm += s.produces + s.consumes;
                o.mem_sync += s.produce_syncs + s.consume_syncs;
            }
            o.emitted_comm = results.at(i).emitted_comm;
            out.push_back(std::move(o));
        } catch (const std::exception &e) {
            failures.push_back(id + ": " + e.what());
        }
    }
    return out;
}

Expected
readExpected(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read expected results " + path);
    Expected ex;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tag, workload;
        ls >> tag >> workload;
        if (tag == "digest") {
            std::string name, digest;
            ls >> name >> digest;
            ex.digests[name] = digest;
        } else if (tag == "cell") {
            Outcome o;
            ls >> o.id >> o.st_cycles >> o.mt_cycles >> o.computation >>
                o.duplicated_branches >> o.reg_comm >> o.mem_sync >>
                o.moves_accepted >> o.emitted_comm;
            if (!ls)
                throw std::runtime_error("malformed expected line: " + line);
            ex.cells[workload][o.id] = o;
        } else {
            throw std::runtime_error("unknown expected line: " + line);
        }
    }
    return ex;
}

std::string
formatExpected(const std::string &workload, const Inputs &in,
               const std::vector<Outcome> &outcomes)
{
    std::map<std::string, const Outcome *> sorted;
    for (const Outcome &o : outcomes)
        sorted[o.id] = &o;
    std::ostringstream os;
    for (const auto &[id, o] : sorted)
        os << "cell " << workload << ' ' << id << ' ' << o->st_cycles
           << ' ' << o->mt_cycles << ' ' << o->computation << ' '
           << o->duplicated_branches << ' ' << o->reg_comm << ' '
           << o->mem_sync << ' ' << o->moves_accepted << ' '
           << o->emitted_comm << '\n';
    if (in.kind == Kind::Compile) {
        std::map<std::string, std::string> digests;
        for (const ExperimentCell &c : in.cells)
            digests[c.workload.name] = c.workload.digest;
        for (const auto &[name, digest] : digests)
            os << "digest " << workload << ' ' << name << ' ' << digest
               << '\n';
    }
    return os.str();
}

} // namespace gmtbench
