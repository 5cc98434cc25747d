#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/memory_image.hpp"
#include "runtime/mt_interpreter.hpp"
#include "runtime/sync_array.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/error.hpp"

namespace gmt
{
namespace
{

Function
buildLoopSum()
{
    FunctionBuilder b("loop_sum");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId done = b.newBlock("done");
    b.setBlock(head);
    Reg i = b.constI(0);
    Reg sum = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    b.addInto(sum, sum, i);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg again = b.cmpLt(i, n);
    b.br(again, body, done);
    b.setBlock(done);
    b.ret({sum});
    return b.finish();
}

TEST(MemoryImage, AllocAndAccess)
{
    MemoryImage mem;
    int64_t a = mem.alloc(4);
    int64_t b = mem.alloc(2);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 4);
    EXPECT_EQ(mem.size(), 6);
    mem.write(5, 99);
    EXPECT_EQ(mem.read(5), 99);
    EXPECT_EQ(mem.read(0), 0);
}

TEST(MemoryImage, OutOfBoundsFatal)
{
    MemoryImage mem;
    mem.alloc(1);
    EXPECT_THROW(mem.read(1), FatalError);
    EXPECT_THROW(mem.write(-1, 0), FatalError);
    EXPECT_THROW((void)mem.read(-5), FatalError);
}

TEST(Interpreter, LoopSum)
{
    Function f = buildLoopSum();
    verifyOrDie(f);
    MemoryImage mem;
    auto result = interpret(f, {10}, mem);
    ASSERT_EQ(result.live_outs.size(), 1u);
    EXPECT_EQ(result.live_outs[0], 45); // 0+1+...+9
}

TEST(Interpreter, EdgeProfileCounts)
{
    Function f = buildLoopSum();
    MemoryImage mem;
    auto result = interpret(f, {10}, mem);
    // head->body taken once; body->body 9 times; body->done once.
    EXPECT_EQ(result.profile.edgeCount(0, 0), 1u);
    EXPECT_EQ(result.profile.edgeCount(1, 0), 9u);
    EXPECT_EQ(result.profile.edgeCount(1, 1), 1u);
    EXPECT_EQ(result.profile.block_counts[1], 10u);
}

TEST(Interpreter, MemoryOps)
{
    FunctionBuilder b("memops");
    Reg base = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.load(base, 0, 1);
    Reg two = b.constI(2);
    Reg doubled = b.mul(v, two);
    b.store(base, 1, doubled, 1);
    b.ret({doubled});
    Function f = b.finish();
    verifyOrDie(f);
    MemoryImage mem;
    mem.alloc(2);
    mem.write(0, 21);
    auto result = interpret(f, {0}, mem);
    EXPECT_EQ(result.live_outs[0], 42);
    EXPECT_EQ(mem.read(1), 42);
}

TEST(Interpreter, DivRemByZeroGuarded)
{
    FunctionBuilder b("divz");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg zero = b.constI(0);
    Reg d = b.div(x, zero);
    Reg r = b.rem(x, zero);
    Reg s = b.add(d, r);
    b.ret({s});
    Function f = b.finish();
    MemoryImage mem;
    auto result = interpret(f, {7}, mem);
    EXPECT_EQ(result.live_outs[0], 0);
}

TEST(Interpreter, StepLimitThrows)
{
    FunctionBuilder b("inf");
    BlockId head = b.newBlock("head");
    BlockId done = b.newBlock("done"); // reachable only in theory
    b.setBlock(head);
    Reg t = b.constI(1);
    b.br(t, head, done);
    b.setBlock(done);
    b.ret();
    Function f = b.finish();
    MemoryImage mem;
    EXPECT_THROW(interpret(f, {}, mem, 1000), FatalError);
}

TEST(Interpreter, RejectsCommInstrs)
{
    FunctionBuilder b("bad");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(1);
    b.func().append(bb, {.op = Opcode::Produce, .src1 = v, .queue = 0});
    b.ret();
    Function f = b.finish();
    MemoryImage mem;
    EXPECT_THROW(interpret(f, {}, mem), FatalError);
}

TEST(SyncArray, FifoOrder)
{
    SyncArray sa(4, 8);
    EXPECT_TRUE(sa.produce(2, 10));
    EXPECT_TRUE(sa.produce(2, 20));
    int64_t v = 0;
    EXPECT_TRUE(sa.consume(2, v));
    EXPECT_EQ(v, 10);
    EXPECT_TRUE(sa.consume(2, v));
    EXPECT_EQ(v, 20);
    EXPECT_FALSE(sa.consume(2, v));
}

TEST(SyncArray, CapacityBlocksProduce)
{
    SyncArray sa(1, 2);
    EXPECT_TRUE(sa.produce(0, 1));
    EXPECT_TRUE(sa.produce(0, 2));
    EXPECT_FALSE(sa.produce(0, 3));
    EXPECT_TRUE(sa.full(0));
    int64_t v = 0;
    sa.consume(0, v);
    EXPECT_TRUE(sa.produce(0, 3));
}

TEST(SyncArray, QueuesIndependent)
{
    SyncArray sa(2, 1);
    EXPECT_TRUE(sa.produce(0, 7));
    EXPECT_TRUE(sa.produce(1, 8));
    EXPECT_TRUE(sa.full(0));
    int64_t v = 0;
    EXPECT_TRUE(sa.consume(1, v));
    EXPECT_EQ(v, 8);
    EXPECT_FALSE(sa.empty(0));
    EXPECT_TRUE(sa.allDrained() == false);
}

/**
 * Hand-built 2-thread producer/consumer program: thread 1 computes
 * sum(0..n-1) and produces it; thread 0 consumes and returns it.
 */
MtProgram
buildHandMtProgram()
{
    MtProgram prog;
    prog.num_queues = 1;
    prog.queue_capacity = 1;

    // Thread 0 (master): consume the sum, return it.
    {
        FunctionBuilder b("t0");
        Reg n = b.param();
        (void)n;
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg sum = b.func().newReg();
        b.func().append(bb, {.op = Opcode::Consume, .dst = sum,
                             .queue = 0});
        b.ret({sum});
        prog.threads.push_back(b.finish());
    }
    // Thread 1 (worker): compute and produce.
    {
        FunctionBuilder b("t1");
        Reg n = b.param();
        BlockId head = b.newBlock("head");
        BlockId body = b.newBlock("body");
        BlockId done = b.newBlock("done");
        b.setBlock(head);
        Reg i = b.constI(0);
        Reg sum = b.constI(0);
        b.jmp(body);
        b.setBlock(body);
        b.addInto(sum, sum, i);
        Reg one = b.constI(1);
        b.addInto(i, i, one);
        Reg again = b.cmpLt(i, n);
        b.br(again, body, done);
        b.setBlock(done);
        b.func().append(done, {.op = Opcode::Produce, .src1 = sum,
                               .queue = 0});
        b.ret();
        prog.threads.push_back(b.finish());
    }
    return prog;
}

TEST(MtInterpreter, ProducerConsumer)
{
    MtProgram prog = buildHandMtProgram();
    MemoryImage mem;
    auto result = interpretMt(prog, {10}, mem);
    EXPECT_FALSE(result.deadlock);
    EXPECT_TRUE(result.queues_drained);
    ASSERT_EQ(result.live_outs.size(), 1u);
    EXPECT_EQ(result.live_outs[0], 45);
    EXPECT_EQ(result.stats[1].produces, 1u);
    EXPECT_EQ(result.stats[0].consumes, 1u);
}

TEST(MtInterpreter, RandomSchedulesAgree)
{
    MtProgram prog = buildHandMtProgram();
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        MemoryImage mem;
        auto result = interpretMt(prog, {7}, mem,
                                  SchedulePolicy::Random, seed);
        ASSERT_FALSE(result.deadlock);
        ASSERT_EQ(result.live_outs[0], 21);
    }
}

TEST(MtInterpreter, DetectsDeadlock)
{
    // Both threads consume from queues nobody fills.
    MtProgram prog;
    prog.num_queues = 2;
    prog.queue_capacity = 1;
    for (int t = 0; t < 2; ++t) {
        FunctionBuilder b("t" + std::to_string(t));
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg v = b.func().newReg();
        b.func().append(bb, {.op = Opcode::Consume, .dst = v,
                             .queue = t});
        b.ret();
        prog.threads.push_back(b.finish());
    }
    MemoryImage mem;
    auto result = interpretMt(prog, {}, mem);
    EXPECT_TRUE(result.deadlock);
}

TEST(MtInterpreter, SyncTokensCounted)
{
    MtProgram prog;
    prog.num_queues = 1;
    prog.queue_capacity = 1;
    {
        FunctionBuilder b("t0");
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        b.func().append(bb, {.op = Opcode::ConsumeSync, .queue = 0});
        b.ret();
        prog.threads.push_back(b.finish());
    }
    {
        FunctionBuilder b("t1");
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        b.func().append(bb, {.op = Opcode::ProduceSync, .queue = 0});
        b.ret();
        prog.threads.push_back(b.finish());
    }
    MemoryImage mem;
    auto result = interpretMt(prog, {}, mem);
    EXPECT_FALSE(result.deadlock);
    EXPECT_EQ(result.stats[1].produce_syncs, 1u);
    EXPECT_EQ(result.stats[0].consume_syncs, 1u);
    EXPECT_EQ(result.totalCommunication(), 2u);
}

TEST(MtInterpreter, StepLimitThrows)
{
    MtProgram prog = buildHandMtProgram();
    MemoryImage mem;
    EXPECT_NO_THROW(interpretMt(prog, {100}, mem,
                                SchedulePolicy::RoundRobin, 0, 100'000));
    try {
        interpretMt(prog, {100}, mem, SchedulePolicy::RoundRobin, 0, 50);
        ADD_FAILURE() << "step limit not enforced";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "interpretMt: step limit exceeded");
    }
}

TEST(MtInterpreter, ArgCountMismatchIsFatal)
{
    // Every thread of the hand-built program takes one parameter.
    MtProgram prog = buildHandMtProgram();
    for (const std::vector<int64_t> &args :
         {std::vector<int64_t>{}, std::vector<int64_t>{1, 2}}) {
        MemoryImage mem;
        try {
            interpretMt(prog, args, mem);
            ADD_FAILURE() << args.size() << " args accepted";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "interpretMt: thread 0 expects 1 args, got " +
                          std::to_string(args.size()));
        }
    }
}

/**
 * Two threads whose consumes block before their producers run (under
 * round-robin, thread 0 reaches each consume while the matching
 * produce is still ahead in thread 1), with a Jmp, a duplicated Br and
 * a plain Br. The Fig. 7 count of every instruction is written out
 * below by hand, independently of statClassOf.
 */
MtProgram
buildCountingProgram()
{
    MtProgram prog;
    prog.num_queues = 2;
    prog.queue_capacity = 1;
    {
        // Thread 0: consume.sync q1, consume q0 -> v, jmp; v + 1.
        FunctionBuilder b("t0");
        BlockId entry = b.newBlock("entry");
        BlockId exit = b.newBlock("exit");
        b.setBlock(entry);
        Reg v = b.func().newReg();
        b.func().append(entry,
                        {.op = Opcode::ConsumeSync, .queue = 1});
        b.func().append(entry,
                        {.op = Opcode::Consume, .dst = v, .queue = 0});
        b.jmp(exit);
        b.setBlock(exit);
        Reg one = b.constI(1);
        Reg sum = b.add(v, one);
        b.ret({sum});
        prog.threads.push_back(b.finish());
    }
    {
        // Thread 1: x = 41, produce.sync q1, k = 1, produce x to q0,
        // a duplicated br k, store x to [k], a plain br k, ret.
        FunctionBuilder b("t1");
        BlockId entry = b.newBlock("entry");
        BlockId a = b.newBlock("a");
        BlockId c = b.newBlock("c");
        BlockId never = b.newBlock("never");
        b.setBlock(entry);
        Reg x = b.constI(41);
        b.func().append(entry,
                        {.op = Opcode::ProduceSync, .queue = 1});
        Reg k = b.constI(1);
        b.func().append(entry,
                        {.op = Opcode::Produce, .src1 = x, .queue = 0});
        b.br(k, a, never);
        b.func().instr(b.lastInstr()).duplicated = true;
        b.setBlock(a);
        b.store(k, 0, x, kAliasAny);
        b.br(k, c, never);
        b.setBlock(c);
        b.ret();
        b.setBlock(never);
        b.ret();
        prog.threads.push_back(b.finish());
    }
    return prog;
}

TEST(MtInterpreter, CountsFollowTheFig7Classes)
{
    const MtProgram prog = buildCountingProgram();
    std::vector<ThreadStats> expected(2);
    expected[0].computation = 3; // const, add, ret (the jmp is free)
    expected[0].consumes = 1;
    expected[0].consume_syncs = 1;
    expected[1].computation = 5; // 2 consts, store, plain br, ret
    expected[1].duplicated_branches = 1;
    expected[1].produces = 1;
    expected[1].produce_syncs = 1;

    auto check = [&](const MtRunResult &r, MemoryImage &mem,
                     const std::string &what) {
        SCOPED_TRACE(what);
        EXPECT_FALSE(r.deadlock);
        EXPECT_TRUE(r.queues_drained);
        EXPECT_EQ(r.live_outs, std::vector<int64_t>{42});
        EXPECT_EQ(mem.read(1), 41);
        EXPECT_EQ(r.stats, expected);
    };
    {
        MemoryImage mem;
        mem.alloc(4);
        check(interpretMt(prog, {}, mem), mem, "round-robin");
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        MemoryImage mem;
        mem.alloc(4);
        check(interpretMt(prog, {}, mem, SchedulePolicy::Random, seed),
              mem, "random seed " + std::to_string(seed));
    }
    for (SimEngine e : {SimEngine::Fast, SimEngine::Reference}) {
        SCOPED_TRACE(simEngineName(e));
        MemoryImage mem;
        mem.alloc(4);
        SimResult r =
            CmpSimulator(MachineConfig::paperDefault(), e).run(prog, {},
                                                               mem);
        EXPECT_EQ(r.live_outs, std::vector<int64_t>{42});
        EXPECT_TRUE(r.queues_drained);
        ASSERT_EQ(r.core.size(), 2u);
        for (size_t t = 0; t < 2; ++t)
            EXPECT_EQ(r.core[t].counts, expected[t]) << "core " << t;
    }
}

TEST(MtInterpreter, SingleThreadDegenerate)
{
    MtProgram prog;
    prog.num_queues = 0;
    {
        FunctionBuilder b("t0");
        Reg x = b.param();
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg two = b.constI(2);
        Reg y = b.mul(x, two);
        b.ret({y});
        prog.threads.push_back(b.finish());
    }
    MemoryImage mem;
    auto result = interpretMt(prog, {21}, mem);
    EXPECT_FALSE(result.deadlock);
    EXPECT_EQ(result.live_outs[0], 42);
}

} // namespace
} // namespace gmt
