#include <gtest/gtest.h>

#include <set>

#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/error.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

MemoryImage
refMemory(const Workload &w)
{
    MemoryImage mem;
    mem.alloc(w.mem_cells);
    if (w.fill)
        w.fill(mem, /*ref=*/true);
    return mem;
}

/** The latency classes, restated here rather than taken from the
 *  decoder: every opcode not listed is an ALU op. */
LatClass
expectedLatClass(Opcode op)
{
    static const std::pair<Opcode, LatClass> kLong[] = {
        {Opcode::Mul, LatClass::Mul},
        {Opcode::Div, LatClass::Div},
        {Opcode::Rem, LatClass::Div}};
    for (const auto &[o, lat] : kLong)
        if (o == op)
            return lat;
    return LatClass::Alu;
}

/**
 * Re-derive every record of @p t from @p f, the function it was
 * decoded from. Both engines simulate the same decode, so comparing
 * them cannot catch a decode bug; this check can. Returns the first
 * mismatch, or "" when the decode is faithful.
 */
std::string
decodeMismatch(const Function &f, const DecodedThread &t)
{
    if (t.num_regs != f.numRegs() || t.params != f.params() ||
        t.live_outs != f.liveOuts() || t.num_blocks != f.numBlocks())
        return "thread header differs";
    // Blocks are laid out in id order: the first flat index of each.
    std::vector<int32_t> first(f.numBlocks());
    int32_t n = 0;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        first[b] = n;
        n += static_cast<int32_t>(f.block(b).instrs().size());
    }
    if (t.entry != first[f.entry()])
        return "entry differs";
    if (t.code.size() != static_cast<size_t>(n) ||
        t.block_of.size() != static_cast<size_t>(n))
        return "length differs";
    int32_t i = 0;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const std::vector<BlockId> &succs = f.block(b).succs();
        for (InstrId id : f.block(b).instrs()) {
            const Instr &in = f.instr(id);
            const DecodedInstr &d = t.code[i];
            const std::string at = "index " + std::to_string(i) +
                                   " (" +
                                   std::string(opcodeName(in.op)) +
                                   "): ";
            if (d.op != in.op || d.dst != in.dst ||
                d.src1 != in.src1 || d.src2 != in.src2 ||
                d.queue != in.queue || d.imm != in.imm)
                return at + "operands differ";
            if (d.nsrc != numSrcs(in.op))
                return at + "nsrc differs";
            if (d.mem_port != usesMemoryPort(in.op))
                return at + "mem_port differs";
            if (d.stat != statClassOf(in.op, in.duplicated))
                return at + "stat differs";
            if (d.lat != expectedLatClass(in.op))
                return at + "latency class differs";
            if (t.block_of[i] != b)
                return at + "block_of differs";
            if ((in.op == Opcode::Jmp || in.op == Opcode::Br) &&
                d.next != first[succs.at(0)])
                return at + "taken target differs";
            if (in.op == Opcode::Br && d.br_not != first[succs.at(1)])
                return at + "fall-through target differs";
            ++i;
        }
    }
    return "";
}

/** decodeMismatch over every thread of @p prog. */
std::string
decodeMismatch(const MtProgram &prog, const DecodedProgram &dp)
{
    if (dp.num_queues != prog.num_queues ||
        dp.queue_capacity != prog.queue_capacity ||
        dp.threads.size() != prog.threads.size())
        return "program header differs";
    for (size_t t = 0; t < prog.threads.size(); ++t) {
        std::string m = decodeMismatch(prog.threads[t], dp.threads[t]);
        if (!m.empty())
            return "thread " + std::to_string(t) + ": " + m;
    }
    return "";
}

/**
 * The differential-testing contract, across the full benchmark
 * matrix (11 workloads x {DSWP, GREMIO} x {COCO off, on}):
 *  - the decode of every MT thread and of the single-threaded
 *    baseline re-derives from its Function (decodeMismatch);
 *  - the skipping engine's SimResult — cycles, per-core instruction
 *    counts and stall accounting, cache counters, everything
 *    architectural — equals the lock-step sweep's, for both the MT
 *    program and the single-threaded baseline;
 *  - the simulator is an MT oracle and counter the pipeline can rely
 *    on instead of the MT interpreter: its final memory equals the ST
 *    interpreter's, and each core's counts equal interpretMt's
 *    ThreadStats for that thread under round-robin and under random
 *    interleavings (the schedules are race-free, so the interleaving
 *    cannot change any thread's instruction stream).
 */
TEST(SimFastDifferential, FullMatrixBitIdentical)
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

                MemoryImage st_truth = refMemory(w);
                auto st = interpret(ctx.ir->func, w.ref_args, st_truth);

                const DecodedProgram dp = decodeProgram(ctx.prog->prog);
                EXPECT_EQ(decodeMismatch(ctx.prog->prog, dp), "");
                EXPECT_EQ(decodeMismatch(ctx.ir->func,
                                         decodeThread(ctx.ir->func)),
                          "");

                MemoryImage fast_mem = refMemory(w);
                MemoryImage ref_mem = refMemory(w);
                SimResult mt_fast = CmpSimulator(m, SimEngine::Fast)
                                        .run(dp, w.ref_args, fast_mem);
                SimResult mt_ref = CmpSimulator(m, SimEngine::Reference)
                                       .run(dp, w.ref_args, ref_mem);
                EXPECT_TRUE(mt_fast == mt_ref);
                EXPECT_EQ(mt_fast.engine.iterations +
                              mt_fast.engine.skipped,
                          mt_fast.cycles);
                EXPECT_EQ(mt_fast.live_outs, st.live_outs);
                EXPECT_TRUE(fast_mem == st_truth);
                EXPECT_TRUE(ref_mem == st_truth);
                EXPECT_TRUE(mt_fast.queues_drained);

                const std::pair<SchedulePolicy, uint64_t> runs[] = {
                    {SchedulePolicy::RoundRobin, 0},
                    {SchedulePolicy::Random, 1},
                    {SchedulePolicy::Random, 2},
                    {SchedulePolicy::Random, 3}};
                for (const auto &[policy, seed] : runs) {
                    MemoryImage mem = refMemory(w);
                    MtRunResult mt = interpretMt(
                        ctx.prog->prog, w.ref_args, mem, policy, seed);
                    ASSERT_EQ(mt.stats.size(), mt_fast.core.size());
                    for (size_t c = 0; c < mt.stats.size(); ++c)
                        EXPECT_TRUE(mt_fast.core[c].counts ==
                                    mt.stats[c])
                            << "core " << c << " seed " << seed;
                }

                MemoryImage st_mem_fast = refMemory(w);
                MemoryImage st_mem_ref = refMemory(w);
                SimResult st_fast = simulateSingleThreaded(
                    ctx.ir->func, w.ref_args, st_mem_fast, m,
                    SimEngine::Fast);
                SimResult st_ref = simulateSingleThreaded(
                    ctx.ir->func, w.ref_args, st_mem_ref, m,
                    SimEngine::Reference);
                EXPECT_TRUE(st_fast == st_ref);
                EXPECT_EQ(st_mem_fast, st_mem_ref);
            }
        }
    }
}

/**
 * The decode check on generated cells (workloads/generate.hpp). The
 * DSWP and GREMIO programs cut from these seeds hold every opcode the
 * generator emits, Rem included, which no benchmark workload uses
 * (the matrix above covers the memory-sync queue ops instead).
 */
TEST(DecodedProgram, GeneratedCellsRederive)
{
    std::set<Opcode> seen;
    for (uint64_t seed : {0u, 1u, 2u, 3u}) {
        Workload w = generateWorkload(seed);
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            SCOPED_TRACE(ctx.cellId());
            EXPECT_EQ(decodeMismatch(ctx.ir->func,
                                     decodeThread(ctx.ir->func)),
                      "");
            EXPECT_EQ(decodeMismatch(ctx.prog->prog,
                                     decodeProgram(ctx.prog->prog)),
                      "");
            for (const Function &f : ctx.prog->prog.threads)
                for (InstrId i = 0; i < f.numInstrs(); ++i)
                    seen.insert(f.instr(i).op);
        }
    }
    for (Opcode op :
         {Opcode::Const, Opcode::Mov, Opcode::Add, Opcode::Sub,
          Opcode::Mul, Opcode::Div, Opcode::Rem, Opcode::And,
          Opcode::Or, Opcode::Xor, Opcode::Shl, Opcode::Shr,
          Opcode::Min, Opcode::Max, Opcode::Abs, Opcode::CmpEq,
          Opcode::CmpLt, Opcode::CmpGt, Opcode::Load, Opcode::Store,
          Opcode::Br, Opcode::Jmp, Opcode::Ret, Opcode::Produce,
          Opcode::Consume})
        EXPECT_TRUE(seen.count(op)) << opcodeName(op) << " not covered";
}

/**
 * Cycle skipping must fire on long-latency dependence chains and the
 * bulk-incremented stall counters must equal the lock-step sweep's
 * cycle-by-cycle accounting.
 */
TEST(SimFastSkip, BulkStallAccountingOnLatencyChain)
{
    // A serial chain of divisions: each stalls ~div_latency cycles.
    FunctionBuilder b("divchain");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg two = b.constI(2);
    Reg v = b.add(x, two);
    for (int i = 0; i < 32; ++i) {
        v = b.div(v, two);
        v = b.add(v, x);
    }
    b.ret({v});
    Function f = b.finish();

    MachineConfig m = MachineConfig::paperDefault();
    MemoryImage mem1, mem2;
    SimResult fast =
        simulateSingleThreaded(f, {1000000}, mem1, m, SimEngine::Fast);
    SimResult ref = simulateSingleThreaded(f, {1000000}, mem2, m,
                                           SimEngine::Reference);

    EXPECT_TRUE(fast == ref);
    // The whole point: the fast engine swept far fewer cycles.
    EXPECT_GT(fast.engine.skipped, 0u);
    EXPECT_LT(fast.engine.iterations, fast.cycles);
    EXPECT_EQ(fast.engine.iterations + fast.engine.skipped,
              fast.cycles);
    // Stall cycles dominated by the div chain; bulk accounting must
    // reproduce them exactly (already covered by ==, spelled out for
    // the counter the skip engine touches).
    EXPECT_EQ(fast.core[0].stall_operand, ref.core[0].stall_operand);
    EXPECT_EQ(ref.engine.skipped, 0u);
}

/** Build the producer/consumer ping-pong used by the wakeup tests. */
MtProgram
pingPong(int n_values)
{
    MtProgram prog;
    prog.num_queues = 1;
    prog.queue_capacity = 1;
    {
        FunctionBuilder b("consumer");
        Reg n = b.param();
        BlockId head = b.newBlock("head");
        BlockId body = b.newBlock("body");
        BlockId done = b.newBlock("done");
        b.setBlock(head);
        Reg i = b.constI(0);
        Reg sum = b.constI(0);
        b.jmp(body);
        b.setBlock(body);
        Reg v = b.func().newReg();
        b.func().append(body,
                        {.op = Opcode::Consume, .dst = v, .queue = 0});
        b.addInto(sum, sum, v);
        Reg one = b.constI(1);
        b.addInto(i, i, one);
        Reg c = b.cmpLt(i, n);
        b.br(c, body, done);
        b.setBlock(done);
        b.ret({sum});
        prog.threads.push_back(b.finish());
    }
    {
        FunctionBuilder b("producer");
        Reg n = b.param();
        BlockId head = b.newBlock("head");
        BlockId body = b.newBlock("body");
        BlockId done = b.newBlock("done");
        b.setBlock(head);
        Reg i = b.constI(0);
        b.jmp(body);
        b.setBlock(body);
        b.func().append(body,
                        {.op = Opcode::Produce, .src1 = i, .queue = 0});
        Reg one = b.constI(1);
        b.addInto(i, i, one);
        Reg c = b.cmpLt(i, n);
        b.br(c, body, done);
        b.setBlock(done);
        b.ret({});
        prog.threads.push_back(b.finish());
    }
    (void)n_values;
    return prog;
}

/**
 * Queue wakeup: with capacity-1 queues the producer repeatedly blocks
 * on a full queue and the consumer on an empty one. The version-stamp
 * memo must re-arm each side exactly when the lock-step re-poll
 * would succeed, keeping every stall counter identical.
 */
TEST(SimFastWakeup, CapacityOnePingPongBitIdentical)
{
    MtProgram prog = pingPong(500);
    MachineConfig m = MachineConfig::paperDefault();

    MemoryImage mem1, mem2;
    CmpSimulator fast_sim(m, SimEngine::Fast);
    CmpSimulator ref_sim(m, SimEngine::Reference);
    SimResult fast = fast_sim.run(prog, {500}, mem1);
    SimResult ref = ref_sim.run(prog, {500}, mem2);

    EXPECT_TRUE(fast == ref);
    EXPECT_EQ(fast.live_outs.size(), 1u);
    EXPECT_EQ(fast.live_outs[0], 499 * 500 / 2);
    EXPECT_TRUE(fast.queues_drained);
    // Both kinds of queue stall occurred and match exactly.
    EXPECT_GT(fast.core[0].stall_queue_empty, 0u);
    EXPECT_GT(fast.core[1].stall_queue_full, 0u);
}

/** Pre-decoding preserves the program shape the issue loop walks. */
TEST(DecodedProgram, BranchTargetsAndLatencyClasses)
{
    FunctionBuilder b("shapes");
    Reg x = b.param();
    BlockId head = b.newBlock("head");
    BlockId then_b = b.newBlock("then");
    BlockId done = b.newBlock("done");
    b.setBlock(head);
    Reg two = b.constI(2);
    Reg m = b.mul(x, two);
    Reg d = b.div(m, two);
    Reg r = b.rem(d, two);
    Reg c = b.cmpLt(r, two);
    b.br(c, then_b, done);
    b.setBlock(then_b);
    b.jmp(done);
    b.setBlock(done);
    b.ret({d});
    Function f = b.finish();

    DecodedThread t = decodeThread(f);
    EXPECT_EQ(decodeMismatch(f, t), "");
    ASSERT_EQ(t.code.size(),
              static_cast<size_t>(f.numInstrs()));
    int muls = 0, divs = 0, brs = 0, jmps = 0;
    for (const DecodedInstr &di : t.code) {
        if (di.lat == LatClass::Mul && di.op == Opcode::Mul)
            ++muls;
        if (di.lat == LatClass::Div)
            ++divs;
        if (di.op == Opcode::Br) {
            ++brs;
            // Both targets resolved to valid flat indices.
            EXPECT_GE(di.next, 0);
            EXPECT_GE(di.br_not, 0);
            EXPECT_LT(di.next, static_cast<int32_t>(t.code.size()));
            EXPECT_LT(di.br_not, static_cast<int32_t>(t.code.size()));
        }
        if (di.op == Opcode::Jmp) {
            ++jmps;
            EXPECT_GE(di.next, 0);
        }
    }
    EXPECT_EQ(muls, 1);
    EXPECT_EQ(divs, 2); // div and rem
    EXPECT_EQ(brs, 1);
    EXPECT_EQ(jmps, 1);
}

/** Run @p prog under @p budget and return the FatalError text ("" if
 *  the run finished). */
std::string
simError(const MtProgram &prog, SimEngine e,
         const std::vector<int64_t> &args,
         uint64_t budget = 500'000'000)
{
    MemoryImage mem;
    try {
        CmpSimulator(MachineConfig::paperDefault(), e)
            .run(prog, args, mem, budget);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/**
 * The wedge detector must fire identically under skipping: a
 * two-thread deadlock (both consume first) dies with the same message
 * at the same cycle in both engines rather than being masked by (or
 * tripping early in) the skip engine.
 */
TEST(SimFastWedge, DeadlockDetectedLikeReference)
{
    MtProgram prog;
    prog.num_queues = 2;
    prog.queue_capacity = 1;
    for (int t = 0; t < 2; ++t) {
        FunctionBuilder b(t == 0 ? "a" : "b");
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg v = b.func().newReg();
        // Each consumes the queue only the *other* would fill last —
        // classic circular wait; nothing is ever produced.
        b.func().append(bb, {.op = Opcode::Consume, .dst = v,
                             .queue = static_cast<QueueId>(t)});
        b.func().append(bb, {.op = Opcode::Produce, .src1 = v,
                             .queue = static_cast<QueueId>(1 - t)});
        b.ret({});
        prog.threads.push_back(b.finish());
    }
    std::string fast = simError(prog, SimEngine::Fast, {});
    EXPECT_NE(fast.find("wedged"), std::string::npos) << fast;
    EXPECT_EQ(fast, simError(prog, SimEngine::Reference, {}));
}

/** One block that loops forever through a division chain: it
 *  issues every few cycles (so the wedge check never fires) and
 *  stalls in between (so the fast engine skips). */
MtProgram
divSpin()
{
    FunctionBuilder b("spin");
    Reg x = b.param();
    BlockId loop = b.newBlock("loop");
    b.setBlock(loop);
    Reg q = b.div(x, x);
    b.addInto(x, x, q);
    b.jmp(loop);
    MtProgram prog;
    prog.threads.push_back(b.finish());
    return prog;
}

/**
 * The livelock budget: a program that keeps issuing but never
 * finishes is stopped by both engines at the same cycle, with an
 * error that names it; the skip engine never jumps past the budget.
 * A run that finishes in exactly the budget passes.
 */
TEST(SimBudget, LivelockStopsAtTheBudgetOnBothEngines)
{
    MtProgram spin = divSpin();
    for (SimEngine e : {SimEngine::Fast, SimEngine::Reference}) {
        SCOPED_TRACE(simEngineName(e));
        // More than one loop period of budgets: some end inside a
        // skipped operand stall, some on an issuing cycle.
        for (uint64_t budget = 1000; budget < 1032; ++budget) {
            std::string err = simError(spin, e, {1}, budget);
            EXPECT_NE(err.find("cycle budget"), std::string::npos)
                << err;
            EXPECT_TRUE(
                err.ends_with("at cycle " + std::to_string(budget)))
                << err;
        }

        MtProgram ping = pingPong(0);
        MemoryImage mem;
        SimResult full = CmpSimulator(MachineConfig::paperDefault(), e)
                             .run(ping, {50}, mem);
        MemoryImage mem2;
        EXPECT_TRUE(CmpSimulator(MachineConfig::paperDefault(), e)
                        .run(ping, {50}, mem2, full.cycles) == full);
        MemoryImage mem3;
        EXPECT_THROW(CmpSimulator(MachineConfig::paperDefault(), e)
                         .run(ping, {50}, mem3, full.cycles - 1),
                     FatalError);
    }
}

} // namespace
} // namespace gmt
