#include <gtest/gtest.h>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "coco/relevant.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

/**
 * Two-thread straight-line program:
 *   t0: r0=param; a = r0+1;        (defines a)
 *   t1: b = a*2;                   (defines b, uses a)
 *   t0: ret b
 */
struct TinyProg
{
    Function f{"tiny"};
    Reg a = kNoReg, b = kNoReg;
    ThreadPartition p;
};

TinyProg
buildTiny()
{
    TinyProg tp;
    FunctionBuilder bb("tiny");
    Reg x = bb.param();
    BlockId blk = bb.newBlock("b");
    bb.setBlock(blk);
    Reg a = bb.addImm(x, 1);  // const, add
    Reg two = bb.constI(2);
    Reg b = bb.mul(a, two);
    bb.ret({b});
    tp.f = bb.finish();
    tp.a = a;
    tp.b = b;
    tp.p.num_threads = 2;
    tp.p.assign.assign(tp.f.numInstrs(), 0);
    // mul (position 3) belongs to thread 1.
    tp.p.assign[tp.f.block(0).instrs()[3]] = 1;
    return tp;
}

TEST(Safety, OwnDefMakesSafe)
{
    TinyProg tp = buildTiny();
    SafetyAnalysis safety(tp.f, tp.p, 0);
    // After the add (position 1), a is safe for thread 0.
    EXPECT_TRUE(safety.isSafeAt(tp.a, {0, 2}));
    // b is defined by thread 1's mul: unsafe for thread 0 after it.
    EXPECT_FALSE(safety.isSafeAt(tp.b, {0, 4}));
}

TEST(Safety, ForeignDefMakesUnsafe)
{
    TinyProg tp = buildTiny();
    SafetyAnalysis safety(tp.f, tp.p, 1);
    // Before the mul, a was defined by thread 0: unsafe for thread 1
    // to send (it does not hold the latest value)...
    EXPECT_FALSE(safety.isSafeAt(tp.a, {0, 2}));
    // ...but after thread 1 *uses* a in the mul, it must hold the
    // latest value (it consumed it): safe (the USE term of eq. 1).
    EXPECT_TRUE(safety.isSafeAt(tp.a, {0, 4}));
    // And b, thread 1's own def, is safe afterwards.
    EXPECT_TRUE(safety.isSafeAt(tp.b, {0, 4}));
}

TEST(Safety, EverythingSafeAtEntry)
{
    TinyProg tp = buildTiny();
    for (int t = 0; t < 2; ++t) {
        SafetyAnalysis safety(tp.f, tp.p, t);
        auto safe = safety.safeAt({0, 0});
        EXPECT_EQ(safe.count(), static_cast<size_t>(tp.f.numRegs()));
    }
}

TEST(Safety, MergeIsIntersection)
{
    // r defined by t0 in one arm only; at the join r is safe for t0
    // only if safe on both paths.
    FunctionBuilder b("merge");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId left = b.newBlock("left");
    BlockId right = b.newBlock("right");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg r = b.constI(0); // t0 def
    b.br(c, left, right);
    b.setBlock(left);
    b.constInto(r, 5); // t1 def (foreign for t0)
    b.jmp(join);
    b.setBlock(right);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.mov(r);
    b.ret({s});
    Function f = b.finish();
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    p.assign[f.block(left).instrs()[0]] = 1; // the redefinition

    SafetyAnalysis s0(f, p, 0);
    // Safe on the right path, unsafe on the left -> unsafe at join.
    EXPECT_FALSE(s0.isSafeAt(r, {join, 0}));
    EXPECT_TRUE(s0.isSafeAt(r, {right, 0}));
    EXPECT_FALSE(s0.isSafeAt(r, {left, 1}));
}

TEST(ThreadLiveness, OnlyTargetUsesCount)
{
    TinyProg tp = buildTiny();
    BitVector no_branches(tp.f.numBlocks());
    ThreadLiveness live1(tp.f, tp.p, 1, no_branches);
    // a is live for thread 1 until the mul consumes it.
    EXPECT_TRUE(live1.isLiveAt(tp.a, {0, 2}));
    EXPECT_FALSE(live1.isLiveAt(tp.a, {0, 4}));
    // b is used only by thread 0's ret: dead w.r.t. thread 1.
    EXPECT_FALSE(live1.isLiveAt(tp.b, {0, 4}));

    ThreadLiveness live0(tp.f, tp.p, 0, no_branches);
    EXPECT_TRUE(live0.isLiveAt(tp.b, {0, 4}));
    // a is not used by any thread-0 instruction after its def.
    EXPECT_FALSE(live0.isLiveAt(tp.a, {0, 2}));
}

TEST(ThreadLiveness, RelevantBranchUsesCount)
{
    // branch operand should be live w.r.t. a thread the branch is
    // relevant to, even though the branch is not assigned to it.
    FunctionBuilder b("rb");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId arm = b.newBlock("arm");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg cond = b.mov(c);
    b.br(cond, arm, join);
    b.setBlock(arm);
    Reg v = b.constI(3);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.mov(v);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);

    BitVector without(f.numBlocks());
    ThreadLiveness live_no(f, p, 1, without);
    EXPECT_FALSE(live_no.isLiveAt(cond, {top, 1}));

    BitVector with(f.numBlocks());
    with.set(top); // branch in `top` is relevant to thread 1
    ThreadLiveness live_yes(f, p, 1, with);
    EXPECT_TRUE(live_yes.isLiveAt(cond, {top, 1}));
}

TEST(Relevant, OwnedBranchesAndControlInputs)
{
    FunctionBuilder b("rel");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId arm = b.newBlock("arm");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, arm, join);
    b.setBlock(arm);
    Reg v = b.constI(3);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.mov(v);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);

    // Thread 1 owns the const in `arm`; the branch (thread 0) then
    // controls one of thread 1's instructions -> relevant to both.
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    p.assign[f.block(arm).instrs()[0]] = 1;

    auto sets = initRelevantBranches(f, cd, p);
    EXPECT_TRUE(sets[0].test(top)); // rule 1 (owns the branch)
    EXPECT_TRUE(sets[1].test(top)); // control input of its const
}

TEST(Relevant, GrowForPointAddsControllers)
{
    FunctionBuilder b("grow");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId arm = b.newBlock("arm");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, arm, join);
    b.setBlock(arm);
    Reg v = b.constI(3);
    (void)v;
    b.jmp(join);
    b.setBlock(join);
    b.ret({});
    Function f = b.finish();
    splitCriticalEdges(f);
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);

    BitVector set(f.numBlocks());
    EXPECT_TRUE(isRelevantPoint(cd, set, join));
    EXPECT_FALSE(isRelevantPoint(cd, set, arm));
    EXPECT_TRUE(growRelevantForPoint(f, cd, set, {arm, 0}));
    EXPECT_TRUE(set.test(top));
    EXPECT_TRUE(isRelevantPoint(cd, set, arm));
    EXPECT_FALSE(growRelevantForPoint(f, cd, set, {arm, 0}));
}

// Safety is a must-analysis: on random programs, a register reported
// safe at a point must be safe along every incoming path (checked
// against predecessors' transfer results).
TEST(SafetyProperty, ConsistentWithPredecessors)
{
    Rng rng(31313);
    for (int trial = 0; trial < 15; ++trial) {
        auto gen = generateProgram(rng);
        Function &f = gen.func;
        ThreadPartition p;
        p.num_threads = 2;
        p.assign.resize(f.numInstrs());
        for (auto &x : p.assign)
            x = static_cast<int>(rng.nextBelow(2));
        SafetyAnalysis safety(f, p, 0);
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            if (b == f.entry())
                continue;
            BitVector expect(f.numRegs());
            bool first = true;
            for (BlockId pred : f.block(b).preds()) {
                BitVector out = safety.safeAt(
                    {pred, static_cast<int>(f.block(pred).size())});
                if (first) {
                    expect = std::move(out);
                    first = false;
                } else {
                    expect.intersectWith(out);
                }
            }
            ASSERT_EQ(expect, safety.safeIn(b))
                << "trial " << trial << " block " << b;
        }
    }
}

/**
 * Equation (1) instruction by instruction: per block, the safe set at
 * every position 0..size, to the greatest fixpoint of the
 * intersection over predecessors' last positions (entry: all safe).
 */
std::vector<std::vector<BitVector>>
instructionWalkSafety(const Function &f, const ThreadPartition &p, int ts)
{
    BitVector all(f.numRegs());
    all.setAll();
    std::vector<std::vector<BitVector>> at(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b)
        at[b].assign(f.block(b).size() + 1, all);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            BitVector safe = all;
            if (b != f.entry()) {
                for (BlockId pred : f.block(b).preds())
                    safe.intersectWith(at[pred].back());
            }
            const auto &instrs = f.block(b).instrs();
            for (size_t pos = 0; pos <= instrs.size(); ++pos) {
                if (pos > 0) {
                    InstrId i = instrs[pos - 1];
                    Reg def = f.defOf(i);
                    if (def != kNoReg)
                        safe.reset(def);
                    if (p.threadOf(i) == ts) {
                        if (def != kNoReg)
                            safe.set(def);
                        for (Reg use : f.usesOf(i))
                            safe.set(use);
                    }
                }
                if (!(safe == at[b][pos])) {
                    at[b][pos] = safe;
                    changed = true;
                }
            }
        }
    }
    return at;
}

// The block-summary fixpoint gives the instruction-level one: safeIn
// at every block entry, and isSafeAt for every register at every
// point, on random CFGs under random 2- and 3-thread partitions.
TEST(SafetyProperty, BlockSummariesMatchInstructionWalk)
{
    Rng rng(4242);
    size_t points = 0;
    for (int trial = 0; trial < 20; ++trial) {
        auto gen = generateProgram(rng);
        const Function &f = gen.func;
        ThreadPartition p;
        p.num_threads = 2 + trial % 2;
        p.assign.resize(f.numInstrs());
        for (auto &x : p.assign)
            x = static_cast<int>(rng.nextBelow(p.num_threads));
        for (int ts = 0; ts < p.num_threads; ++ts) {
            SafetyAnalysis safety(f, p, ts);
            auto expect = instructionWalkSafety(f, p, ts);
            for (BlockId b = 0; b < f.numBlocks(); ++b) {
                ASSERT_EQ(safety.safeIn(b), expect[b][0])
                    << "trial " << trial << " ts " << ts << " block "
                    << b;
                for (int pos = 0;
                     pos <= static_cast<int>(f.block(b).size()); ++pos) {
                    for (Reg r = 0; r < f.numRegs(); ++r) {
                        ASSERT_EQ(safety.isSafeAt(r, {b, pos}),
                                  expect[b][pos].test(r))
                            << "trial " << trial << " ts " << ts
                            << " r" << r << " at " << b << ":" << pos;
                        ++points;
                    }
                }
            }
        }
    }
    EXPECT_GT(points, 10000u);
}

} // namespace
} // namespace gmt
