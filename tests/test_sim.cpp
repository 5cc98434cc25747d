#include <gtest/gtest.h>

#include <sstream>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

TEST(Cache, HitAfterFill)
{
    Cache c({1024, 2, 64, 1});
    EXPECT_FALSE(c.lookup(0));
    c.fill(0);
    EXPECT_TRUE(c.lookup(0));
    EXPECT_TRUE(c.lookup(63));  // same line
    EXPECT_FALSE(c.lookup(64)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 2 sets (256B total).
    Cache c({256, 2, 64, 1});
    // Three lines mapping to the same set (stride = 2 lines).
    c.fill(0);
    c.fill(256);
    EXPECT_TRUE(c.lookup(0));   // refresh 0: 256 becomes LRU
    c.fill(512);                // evicts 256
    EXPECT_TRUE(c.lookup(0));
    EXPECT_FALSE(c.lookup(256));
    EXPECT_TRUE(c.lookup(512));
}

TEST(Cache, Invalidate)
{
    Cache c({1024, 2, 64, 1});
    c.fill(128);
    EXPECT_TRUE(c.lookup(128));
    c.invalidate(128);
    EXPECT_FALSE(c.lookup(128));
}

TEST(MemoryHierarchy, LatencyLadder)
{
    MachineConfig cfg;
    MemoryHierarchy h(cfg, 2);
    // Cold: full memory latency. Then L1 hit.
    EXPECT_EQ(h.loadLatency(0, 100), cfg.memory_latency);
    EXPECT_EQ(h.loadLatency(0, 100), cfg.l1d.hit_latency);
}

TEST(MemoryHierarchy, StoreInvalidatesOtherCore)
{
    MachineConfig cfg;
    MemoryHierarchy h(cfg, 2);
    h.loadLatency(0, 100);
    h.loadLatency(1, 100);
    EXPECT_EQ(h.loadLatency(1, 100), cfg.l1d.hit_latency);
    h.storeLatency(0, 100);
    // Core 1's copies died; it refetches from the shared L3.
    EXPECT_EQ(h.loadLatency(1, 100), cfg.l3.hit_latency);
}

TEST(SyncArrayTiming, PortsLimitPerCycle)
{
    MachineConfig cfg;
    cfg.sa_ports = 2;
    SyncArrayTiming sa(cfg);
    sa.beginCycle();
    EXPECT_TRUE(sa.portAvailable());
    sa.produce(0, 1);
    sa.produce(1, 2);
    EXPECT_FALSE(sa.portAvailable());
    sa.beginCycle();
    EXPECT_TRUE(sa.portAvailable());
}

TEST(SyncArrayTiming, CapacityGatesProduce)
{
    MachineConfig cfg;
    cfg.queue_capacity = 1;
    SyncArrayTiming sa(cfg);
    sa.beginCycle();
    EXPECT_TRUE(sa.canProduce(3));
    sa.produce(3, 9);
    EXPECT_FALSE(sa.canProduce(3));
    EXPECT_TRUE(sa.canConsume(3));
    EXPECT_EQ(sa.consume(3), 9);
    EXPECT_FALSE(sa.canConsume(3));
    EXPECT_TRUE(sa.allDrained());
}

TEST(MachineConfig, PrintsFigure6a)
{
    std::ostringstream os;
    MachineConfig::paperDefault().print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("L3 (shared)"), std::string::npos);
    EXPECT_NE(s.find("141"), std::string::npos);
    EXPECT_NE(s.find("write-invalidate"), std::string::npos);
}

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

TEST(CmpSimulator, SingleThreadMatchesInterpreter)
{
    Function f = buildLoopSum();
    MemoryImage mem;
    auto sim = simulateSingleThreaded(f, {50}, mem,
                                      MachineConfig::paperDefault());
    MemoryImage mem2;
    auto ref = interpret(f, {50}, mem2);
    EXPECT_EQ(sim.live_outs, ref.live_outs);
    EXPECT_TRUE(sim.queues_drained);
    // Cycles bounded below by instrs / issue width.
    EXPECT_GE(sim.cycles, ref.dyn_instrs / 6);
}

TEST(CmpSimulator, DependentChainBoundByLatency)
{
    // A serial chain of n adds takes at least n cycles.
    FunctionBuilder b("chain");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg one = b.constI(1);
    Reg v = x;
    for (int i = 0; i < 64; ++i)
        v = b.add(v, one);
    b.ret({v});
    Function f = b.finish();
    MemoryImage mem;
    auto sim = simulateSingleThreaded(f, {0}, mem,
                                      MachineConfig::paperDefault());
    EXPECT_EQ(sim.live_outs[0], 64);
    EXPECT_GE(sim.cycles, 64u);
}

TEST(CmpSimulator, IndependentWorkIssuesWide)
{
    // 60 independent consts retire much faster than 1 per cycle.
    FunctionBuilder b("wide");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg last = kNoReg;
    for (int i = 0; i < 60; ++i)
        last = b.constI(i);
    b.ret({last});
    Function f = b.finish();
    MemoryImage mem;
    auto sim = simulateSingleThreaded(f, {}, mem,
                                      MachineConfig::paperDefault());
    EXPECT_LT(sim.cycles, 30u);
}

TEST(CmpSimulator, MemPortLimitsThroughput)
{
    // 40 independent stores: at most 4 per cycle.
    FunctionBuilder b("stores");
    Reg base = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(7);
    for (int i = 0; i < 40; ++i)
        b.store(base, i, v, 1);
    b.ret({});
    Function f = b.finish();
    MemoryImage mem;
    mem.alloc(64);
    auto sim = simulateSingleThreaded(f, {0}, mem,
                                      MachineConfig::paperDefault());
    EXPECT_GE(sim.cycles, 10u); // 40 stores / 4 ports
}

TEST(CmpSimulator, ProducerConsumerPipeline)
{
    // Thread 1 produces n values; thread 0 consumes and sums them.
    MtProgram prog;
    prog.num_queues = 1;
    prog.queue_capacity = 32;
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
        b.func().append(body, {.op = Opcode::Consume, .dst = v,
                               .queue = 0});
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
        b.func().append(body, {.op = Opcode::Produce, .src1 = i,
                               .queue = 0});
        Reg one = b.constI(1);
        b.addInto(i, i, one);
        Reg c = b.cmpLt(i, n);
        b.br(c, body, done);
        b.setBlock(done);
        b.ret({});
        prog.threads.push_back(b.finish());
    }
    MemoryImage mem;
    CmpSimulator sim(MachineConfig::paperDefault());
    auto r = sim.run(prog, {100}, mem);
    ASSERT_EQ(r.live_outs.size(), 1u);
    EXPECT_EQ(r.live_outs[0], 99 * 100 / 2);
    EXPECT_TRUE(r.queues_drained);
    EXPECT_GT(r.core[0].counts.communication(), 0u);
}

TEST(CmpSimulator, QueueCapacityOneSerializes)
{
    // Same program, capacity 1: producer stalls on full queues.
    MtProgram prog;
    prog.num_queues = 1;
    {
        FunctionBuilder b("c");
        Reg n = b.param();
        (void)n;
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg v1 = b.func().newReg();
        Reg v2 = b.func().newReg();
        b.func().append(bb, {.op = Opcode::Consume, .dst = v1,
                             .queue = 0});
        b.func().append(bb, {.op = Opcode::Consume, .dst = v2,
                             .queue = 0});
        Reg s = b.add(v1, v2);
        b.ret({s});
        prog.threads.push_back(b.finish());
    }
    {
        FunctionBuilder b("p");
        Reg n = b.param();
        (void)n;
        BlockId bb = b.newBlock("b");
        b.setBlock(bb);
        Reg a = b.constI(4);
        Reg c = b.constI(5);
        b.func().append(bb, {.op = Opcode::Produce, .src1 = a,
                             .queue = 0});
        b.func().append(bb, {.op = Opcode::Produce, .src1 = c,
                             .queue = 0});
        b.ret({});
        prog.threads.push_back(b.finish());
    }
    prog.queue_capacity = 1;
    MemoryImage mem;
    CmpSimulator sim(MachineConfig::paperDefault());
    auto r = sim.run(prog, {0}, mem);
    EXPECT_EQ(r.live_outs[0], 9);
}

// Oracle property: the timing simulator's functional results
// (live-outs, final memory, queue drain) agree with the reference
// interpreter for MTCG-generated code.
TEST(CmpSimulatorProperty, AgreesWithInterpreter)
{
    Rng rng(112233);
    for (int trial = 0; trial < 15; ++trial) {
        auto gen = generateProgram(rng);
        Function &f = gen.func;
        splitCriticalEdges(f);
        verifyOrDie(f);
        Pdg pdg = buildPdg(f);
        auto pdom = DominatorTree::postDominators(f);
        ControlDependence cd(f, pdom);
        ThreadPartition p;
        p.num_threads = 2;
        p.assign.resize(f.numInstrs());
        for (auto &x : p.assign)
            x = static_cast<int>(rng.nextBelow(2));
        CommPlan plan = defaultMtcgPlan(f, pdg, p, cd);
        MtProgram prog = runMtcg(f, pdg, p, plan, cd);

        std::vector<int64_t> args{rng.nextRange(-9, 9),
                                  rng.nextRange(-9, 9)};
        MemoryImage ref_mem;
        ref_mem.alloc(gen.array_cells);
        auto ref = interpret(f, args, ref_mem);

        MemoryImage sim_mem;
        sim_mem.alloc(gen.array_cells);
        CmpSimulator sim(MachineConfig::paperDefault());
        auto r = sim.run(prog, args, sim_mem);
        ASSERT_EQ(r.live_outs, ref.live_outs) << "trial " << trial;
        ASSERT_TRUE(sim_mem == ref_mem) << "trial " << trial;
        ASSERT_TRUE(r.queues_drained);
    }
}

} // namespace
} // namespace gmt
