#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
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

TEST(Cache, RejectsGeometryThatIsNotAPowerOfTwo)
{
    EXPECT_THROW(Cache({3 * 2 * 64, 2, 64, 1}), FatalError); // 3 sets
    EXPECT_THROW(Cache({4 * 2 * 48, 2, 48, 1}), FatalError); // 48B lines
    EXPECT_NO_THROW(Cache({1536 * 1024, 12, 128, 12}));      // 12-way ok
    MachineConfig cfg;
    cfg.l2 = {3 * 8 * 128, 8, 128, 7};
    EXPECT_THROW(MemoryHierarchy(cfg, 2), FatalError);
}

// Cache-model differential. The simulator's skip on/off differential
// runs both builds over one cache model, so it cannot catch a bug in
// that model; this compares it against the model as first written
// (division arithmetic, an explicit valid bit) on random multi-core
// load/store streams.

struct RefCache
{
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    explicit RefCache(const CacheConfig &c)
        : cfg(c), num_sets(c.size_bytes / c.line_bytes / c.associativity),
          lines(num_sets * c.associativity)
    {
    }

    Line *
    setOf(uint64_t line)
    {
        return &lines[(line % num_sets) * cfg.associativity];
    }

    bool
    lookup(uint64_t addr)
    {
        uint64_t line = addr / cfg.line_bytes;
        Line *base = setOf(line);
        for (int w = 0; w < cfg.associativity; ++w) {
            if (base[w].valid && base[w].tag == line) {
                base[w].lru = ++stamp;
                ++hits;
                return true;
            }
        }
        ++misses;
        return false;
    }

    void
    fill(uint64_t addr)
    {
        uint64_t line = addr / cfg.line_bytes;
        Line *base = setOf(line);
        Line *victim = &base[0];
        for (int w = 0; w < cfg.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        *victim = {line, true, ++stamp};
    }

    void
    invalidate(uint64_t addr)
    {
        uint64_t line = addr / cfg.line_bytes;
        Line *base = setOf(line);
        for (int w = 0; w < cfg.associativity; ++w) {
            if (base[w].valid && base[w].tag == line)
                base[w].valid = false;
        }
    }

    CacheConfig cfg;
    uint64_t num_sets;
    std::vector<Line> lines;
    uint64_t stamp = 0, hits = 0, misses = 0;
};

struct RefHierarchy
{
    RefHierarchy(const MachineConfig &m, int cores) : m(m), l3(m.l3)
    {
        for (int c = 0; c < cores; ++c) {
            l1.emplace_back(m.l1d);
            l2.emplace_back(m.l2);
        }
    }

    int
    access(int core, int64_t cell, bool is_store)
    {
        uint64_t addr = static_cast<uint64_t>(cell) * 8;
        int latency;
        if (l1[core].lookup(addr)) {
            latency = m.l1d.hit_latency;
        } else if (l2[core].lookup(addr)) {
            latency = m.l2.hit_latency;
            l1[core].fill(addr);
        } else if (l3.lookup(addr)) {
            latency = m.l3.hit_latency;
            l2[core].fill(addr);
            l1[core].fill(addr);
        } else {
            latency = m.memory_latency;
            l3.fill(addr);
            l2[core].fill(addr);
            l1[core].fill(addr);
        }
        for (size_t c = 0; is_store && c < l1.size(); ++c) {
            if (static_cast<int>(c) != core) {
                l1[c].invalidate(addr);
                l2[c].invalidate(addr);
            }
        }
        return latency;
    }

    MachineConfig m;
    std::vector<RefCache> l1, l2;
    RefCache l3;
};

TEST(CacheDifferential, RandomMultiCoreStreamsMatchReference)
{
    // The paper's hierarchy, and a small one (3-way L3) whose levels
    // all evict constantly.
    MachineConfig small;
    small.l1d = {1024, 2, 64, 1};
    small.l2 = {4096, 4, 128, 5};
    small.l3 = {12288, 3, 128, 9};
    for (const MachineConfig &m : {MachineConfig::paperDefault(), small}) {
        // Cells span four times the L3's footprint.
        const int64_t span = 4 * (m.l3.size_bytes / 8);
        for (int cores = 1; cores <= 4; ++cores) {
            SCOPED_TRACE("l3 " + std::to_string(m.l3.size_bytes) +
                         "B, cores " + std::to_string(cores));
            Rng rng(1000 + cores);
            MemoryHierarchy h(m, cores);
            RefHierarchy ref(m, cores);
            std::vector<int64_t> recent(64, 0);
            int64_t cell = 0;
            for (int i = 0; i < 40000; ++i) {
                // A mix of uniform, streaming and reused addresses.
                switch (rng.nextBelow(4)) {
                  case 0: cell = rng.nextRange(0, span - 1); break;
                  case 1: cell = (cell + 1) % span; break;
                  default: cell = recent[rng.nextBelow(recent.size())];
                }
                recent[i % recent.size()] = cell;
                int core = static_cast<int>(rng.nextBelow(cores));
                bool store = rng.nextBool(0.3);
                int got = store ? h.storeLatency(core, cell)
                                : h.loadLatency(core, cell);
                ASSERT_EQ(got, ref.access(core, cell, store))
                    << "access " << i << " cell " << cell;
                for (int c = 0; c < cores; ++c) {
                    ASSERT_EQ(h.l1(c).hits(), ref.l1[c].hits);
                    ASSERT_EQ(h.l1(c).misses(), ref.l1[c].misses);
                    ASSERT_EQ(h.l2(c).hits(), ref.l2[c].hits);
                    ASSERT_EQ(h.l2(c).misses(), ref.l2[c].misses);
                }
                ASSERT_EQ(h.l3().hits(), ref.l3.hits);
                ASSERT_EQ(h.l3().misses(), ref.l3.misses);
            }
            // Every level both hit and missed: the stream reached it.
            EXPECT_GT(h.l1(0).hits(), 0u);
            EXPECT_GT(h.l2(0).hits(), 0u);
            EXPECT_GT(h.l2(0).misses(), 0u);
            EXPECT_GT(h.l3().hits(), 0u);
            EXPECT_GT(h.l3().misses(), 0u);
        }
    }
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

/** One access at cell p: a load of it, or a store of p to it. */
Function
buildAccessAt(bool store)
{
    FunctionBuilder b(store ? "store_at" : "load_at");
    Reg p = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    if (store) {
        b.store(p, 0, p, kAliasAny);
        b.ret();
    } else {
        Reg v = b.load(p, 0, kAliasAny);
        b.ret({v});
    }
    return b.finish();
}

/** The FatalError text @p run raises ("" if it returns). */
template <typename F>
std::string
fatalText(F run)
{
    try {
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(MemoryBounds, EveryExecutorRaisesTheSameFatal)
{
    // A load and a store just below and at the end of a 4-cell image.
    for (bool store : {false, true}) {
        MtProgram prog;
        prog.threads.push_back(buildAccessAt(store));
        for (int64_t addr : {int64_t{-1}, int64_t{4}}) {
            const std::string want =
                std::string("memory ") + (store ? "write" : "read") +
                " out of bounds: addr=" + std::to_string(addr) +
                " size=4";
            SCOPED_TRACE(want);
            auto image = [] {
                MemoryImage mem;
                mem.alloc(4);
                return mem;
            };
            EXPECT_EQ(fatalText([&] {
                          MemoryImage mem = image();
                          interpret(prog.threads[0], {addr}, mem);
                      }),
                      want);
            EXPECT_EQ(fatalText([&] {
                          MemoryImage mem = image();
                          interpretMt(prog, {addr}, mem);
                      }),
                      want);
            for (SimEngine e : {SimEngine::Fast, SimEngine::Reference}) {
                for (bool profiled : {false, true}) {
                    SCOPED_TRACE(std::string(simEngineName(e)) +
                                 (profiled ? ", profiled" : ", lean"));
                    EXPECT_EQ(fatalText([&] {
                                  MemoryImage mem = image();
                                  CmpSimulator sim(MachineConfig{}, e);
                                  SimProfile profile;
                                  if (profiled)
                                      sim.setProfile(&profile);
                                  sim.run(prog, {addr}, mem);
                              }),
                              want);
                }
            }
        }
    }
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
