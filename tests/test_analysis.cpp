#include <gtest/gtest.h>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/edge_profile.hpp"
#include "analysis/liveness.hpp"
#include "analysis/loop_info.hpp"
#include "analysis/mem_dep.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "runtime/interpreter.hpp"
#include "testgen.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

/** Diamond: entry -> (left|right) -> join -> exit(ret). */
Function
buildDiamond()
{
    FunctionBuilder b("diamond");
    Reg c = b.param();
    BlockId entry = b.newBlock("entry");
    BlockId left = b.newBlock("left");
    BlockId right = b.newBlock("right");
    BlockId join = b.newBlock("join");
    b.setBlock(entry);
    b.br(c, left, right);
    b.setBlock(left);
    Reg x = b.constI(1);
    b.jmp(join);
    b.setBlock(right);
    Reg y = b.constI(2);
    b.jmp(join);
    b.setBlock(join);
    Reg z = b.add(x, y); // note: whichever path ran defined only one
    b.ret({z});
    return b.finish();
}

TEST(Dominators, Diamond)
{
    Function f = buildDiamond();
    auto dom = DominatorTree::dominators(f);
    EXPECT_EQ(dom.root(), 0);
    EXPECT_EQ(dom.idom(1), 0);
    EXPECT_EQ(dom.idom(2), 0);
    EXPECT_EQ(dom.idom(3), 0); // join's idom skips the branches
    EXPECT_TRUE(dom.dominates(0, 3));
    EXPECT_FALSE(dom.dominates(1, 3));
    EXPECT_TRUE(dom.dominates(3, 3));
}

TEST(Dominators, PostDiamond)
{
    Function f = buildDiamond();
    auto pdom = DominatorTree::postDominators(f);
    EXPECT_EQ(pdom.root(), 3);
    EXPECT_EQ(pdom.idom(1), 3);
    EXPECT_EQ(pdom.idom(2), 3);
    EXPECT_EQ(pdom.idom(0), 3);
    EXPECT_TRUE(pdom.dominates(3, 0));
    EXPECT_FALSE(pdom.dominates(1, 0));
}

// Brute-force dominance: a dominates b iff removing a disconnects b
// from the root (walking succ or pred edges).
bool
bruteDominates(const Function &f, BlockId a, BlockId b, bool reverse)
{
    if (a == b)
        return true;
    BlockId root = reverse ? f.exitBlock() : f.entry();
    if (b == root)
        return false;
    std::vector<bool> seen(f.numBlocks(), false);
    std::vector<BlockId> stack{root};
    if (root == a)
        return true;
    seen[root] = true;
    while (!stack.empty()) {
        BlockId u = stack.back();
        stack.pop_back();
        const auto &next =
            reverse ? f.block(u).preds() : f.block(u).succs();
        for (BlockId v : next) {
            if (v == a || seen[v])
                continue;
            if (v == b)
                return false;
            seen[v] = true;
            stack.push_back(v);
        }
    }
    return true;
}

/**
 * Inputs of the analysis property tests: 25 random structured programs
 * drawn from @p seed, then the edge-split CFGs the pipeline analyses —
 * three dozen generated workloads and the 11 benchmark kernels.
 */
std::vector<std::pair<std::string, Function>>
propertyInputs(uint64_t seed)
{
    std::vector<std::pair<std::string, Function>> out;
    Rng rng(seed);
    for (int trial = 0; trial < 25; ++trial)
        out.emplace_back("trial " + std::to_string(trial),
                         generateProgram(rng).func);
    std::vector<Workload> cells = allWorkloads();
    for (uint64_t gen = 1; gen <= 36; ++gen)
        cells.push_back(generateWorkload(gen));
    for (Workload &w : cells) {
        splitCriticalEdges(w.func);
        out.emplace_back(w.name, std::move(w.func));
    }
    return out;
}

TEST(DominatorsProperty, MatchBruteForceOnRandomPrograms)
{
    for (const auto &[name, f] : propertyInputs(2024)) {
        auto dom = DominatorTree::dominators(f);
        auto pdom = DominatorTree::postDominators(f);
        for (BlockId a = 0; a < f.numBlocks(); ++a) {
            for (BlockId b = 0; b < f.numBlocks(); ++b) {
                ASSERT_EQ(dom.dominates(a, b),
                          bruteDominates(f, a, b, false))
                    << "dom " << name << " a=" << a << " b=" << b;
                ASSERT_EQ(pdom.dominates(a, b),
                          bruteDominates(f, a, b, true))
                    << "pdom " << name << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST(ControlDep, DiamondArmsDependOnBranch)
{
    Function f = buildDiamond();
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    EXPECT_TRUE(cd.isControlDependent(1, 0));
    EXPECT_TRUE(cd.isControlDependent(2, 0));
    EXPECT_FALSE(cd.isControlDependent(3, 0)); // join always runs
    EXPECT_FALSE(cd.isControlDependent(0, 0));
    EXPECT_EQ(cd.controlledBy(0).size(), 2u);
}

TEST(ControlDep, LoopBodyDependsOnLatch)
{
    // head -> body -> latch(br) -> head | exit : body depends on latch.
    FunctionBuilder b("loop");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg cond = b.cmpLt(i, n);
    b.br(cond, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    // body is control dependent on itself (its branch re-enters it).
    EXPECT_TRUE(cd.isControlDependent(1, 1));
    EXPECT_FALSE(cd.isControlDependent(2, 1));
}

// Definitional cross-check of control dependence: B is control
// dependent on A iff A has a successor S with B post-dominating S,
// and B does not (strictly) post-dominate A. Post-dominance comes from
// the brute-force definition, not from the tree under test.
TEST(ControlDepProperty, MatchesDefinitionOnRandomPrograms)
{
    for (const auto &[name, f] : propertyInputs(4048)) {
        ControlDependence cd(f, DominatorTree::postDominators(f));
        for (BlockId a = 0; a < f.numBlocks(); ++a) {
            if (f.block(a).succs().size() < 2)
                continue;
            for (BlockId b = 0; b < f.numBlocks(); ++b) {
                bool via_succ = false;
                for (BlockId s : f.block(a).succs())
                    via_succ |= bruteDominates(f, b, s, true);
                bool expect = via_succ &&
                              (a == b || !bruteDominates(f, b, a, true));
                ASSERT_EQ(cd.isControlDependent(b, a), expect)
                    << name << " b=" << b << " a=" << a;
            }
        }
    }
}

TEST(Liveness, StraightLine)
{
    FunctionBuilder b("sl");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1); // uses x
    b.ret({y});
    Function f = b.finish();
    Liveness live(f);
    EXPECT_TRUE(live.liveIn(0).test(x));
    // x dies after its use; at the ret only y is live.
    ProgramPoint before_ret{0, static_cast<int>(f.block(0).size()) - 1};
    EXPECT_TRUE(live.isLiveAt(y, before_ret));
    EXPECT_FALSE(live.isLiveAt(x, before_ret));
}

TEST(Liveness, LoopCarriedValueStaysLive)
{
    FunctionBuilder b("loop");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg sum = b.constI(0);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    b.addInto(sum, sum, i);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({sum});
    Function f = b.finish();
    Liveness live(f);
    // sum is live around the back edge and out of the loop.
    EXPECT_TRUE(live.liveIn(1).test(sum));
    EXPECT_TRUE(live.liveOut(1).test(sum));
    EXPECT_TRUE(live.liveIn(2).test(sum));
    // n is live in the loop (used by the exit test) but not after.
    EXPECT_TRUE(live.liveIn(1).test(n));
    EXPECT_FALSE(live.liveIn(2).test(n));
}

// Fixpoint-consistency property: IN = USE u (OUT - DEF), OUT = union
// of successors' IN, on random programs.
TEST(LivenessProperty, DataflowEquationsHold)
{
    Rng rng(808);
    for (int trial = 0; trial < 25; ++trial) {
        auto prog = generateProgram(rng);
        const Function &f = prog.func;
        Liveness live(f);
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            BitVector out(f.numRegs());
            for (BlockId s : f.block(b).succs())
                out.unionWith(live.liveIn(s));
            ASSERT_EQ(out, live.liveOut(b)) << "OUT b=" << b;
            // liveAt(entry of b) must equal liveIn(b).
            ASSERT_EQ(live.liveAt({b, 0}), live.liveIn(b))
                << "IN b=" << b;
        }
    }
}

TEST(LoopInfo, SingleLoop)
{
    FunctionBuilder b("loop");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    auto dom = DominatorTree::dominators(f);
    LoopInfo loops(f, dom);
    ASSERT_EQ(loops.numLoops(), 1);
    EXPECT_EQ(loops.loop(0).header, 1);
    EXPECT_EQ(loops.depthOf(1), 1);
    EXPECT_EQ(loops.depthOf(0), 0);
    EXPECT_EQ(loops.depthOf(2), 0);
}

TEST(LoopInfo, NestedLoopsDepth)
{
    // outer: o_head -> inner(i_head <-> i_head) -> o_latch -> o_head.
    FunctionBuilder b("nest");
    Reg n = b.param();
    BlockId ohead = b.newBlock("ohead");
    BlockId ihead = b.newBlock("ihead");
    BlockId olatch = b.newBlock("olatch");
    BlockId exit = b.newBlock("exit");
    b.setBlock(ohead);
    Reg i = b.constI(0);
    Reg j = b.constI(0);
    b.jmp(ihead);
    b.setBlock(ihead);
    Reg one = b.constI(1);
    b.addInto(j, j, one);
    Reg jc = b.cmpLt(j, n);
    b.br(jc, ihead, olatch);
    b.setBlock(olatch);
    b.addInto(i, i, one);
    Reg ic = b.cmpLt(i, n);
    b.br(ic, ihead, exit);
    b.setBlock(exit);
    b.ret({i, j});
    Function f = b.finish();
    auto dom = DominatorTree::dominators(f);
    LoopInfo loops(f, dom);
    ASSERT_EQ(loops.numLoops(), 1); // shared header collapses here
    EXPECT_GE(loops.depthOf(ihead), 1);
}

TEST(MemDep, MayAliasRules)
{
    EXPECT_TRUE(mayAlias(kAliasAny, 5));
    EXPECT_TRUE(mayAlias(5, kAliasAny));
    EXPECT_TRUE(mayAlias(3, 3));
    EXPECT_FALSE(mayAlias(3, 4));
}

TEST(MemDep, StraightLineFlowDep)
{
    FunctionBuilder b("m");
    Reg a = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(7);
    b.store(a, 0, v, 1);
    Reg w = b.load(a, 0, 1);
    b.ret({w});
    Function f = b.finish();
    auto deps = computeMemDeps(f);
    // store->load flow dep; load->store has no path (load after).
    bool found_flow = false;
    for (const auto &d : deps) {
        if (d.kind == MemDepKind::Flow)
            found_flow = true;
        // No dep may run backwards in a straight line.
        EXPECT_LT(f.positionOf(d.src), f.positionOf(d.dst));
    }
    EXPECT_TRUE(found_flow);
}

TEST(MemDep, DisjointClassesIndependent)
{
    FunctionBuilder b("m2");
    Reg a = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(7);
    b.store(a, 0, v, 1);
    Reg w = b.load(a, 1, 2); // different alias class
    b.ret({w});
    Function f = b.finish();
    auto deps = computeMemDeps(f);
    EXPECT_TRUE(deps.empty());
}

TEST(MemDep, LoopCarriedBidirectional)
{
    // Loop body with store then load of the same class: both
    // store->load (same iter) and load->store (next iter) exist.
    FunctionBuilder b("m3");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg v = b.load(i, 0, 3);
    b.store(i, 0, v, 3);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({});
    Function f = b.finish();
    auto deps = computeMemDeps(f);
    bool flow = false, anti = false;
    for (const auto &d : deps) {
        flow |= (d.kind == MemDepKind::Flow);
        anti |= (d.kind == MemDepKind::Anti);
    }
    EXPECT_TRUE(flow);
    EXPECT_TRUE(anti);
}

TEST(EdgeProfile, FromRunMatchesCounts)
{
    FunctionBuilder b("p");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    MemoryImage mem;
    auto run = interpret(f, {5}, mem);
    auto prof = EdgeProfile::fromRun(f, run.profile);
    EXPECT_EQ(prof.blockWeight(1), 5u);
    EXPECT_EQ(prof.edgeWeight(1, 0), 4u);
    EXPECT_EQ(prof.edgeWeight(1, 1), 1u);
    EXPECT_EQ(prof.pointWeight({1, 0}), 5u);
}

TEST(EdgeProfile, StaticEstimateScalesWithDepth)
{
    FunctionBuilder b("p2");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    auto dom = DominatorTree::dominators(f);
    LoopInfo loops(f, dom);
    auto prof = EdgeProfile::staticEstimate(f, loops);
    EXPECT_GT(prof.blockWeight(1), prof.blockWeight(0));
    EXPECT_GT(prof.blockWeight(1), prof.blockWeight(2));
}

} // namespace
} // namespace gmt
