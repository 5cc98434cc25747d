#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "pdg/pdg_builder.hpp"
#include "testgen.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

bool
hasArc(const Pdg &pdg, InstrId src, InstrId dst, DepKind kind)
{
    for (int a : pdg.arcsFrom(src)) {
        const PdgArc &arc = pdg.arc(a);
        if (arc.dst == dst && arc.kind == kind)
            return true;
    }
    return false;
}

TEST(Pdg, StraightLineRegisterDep)
{
    FunctionBuilder b("sl");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1);       // const; add (uses x)
    Reg z = b.mul(y, y);          // uses y
    b.ret({z});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);

    // add -> mul through y, mul -> ret through z.
    InstrId add = f.block(bb).instrs()[1];
    InstrId mul = f.block(bb).instrs()[2];
    InstrId ret = f.block(bb).instrs()[3];
    EXPECT_TRUE(hasArc(pdg, add, mul, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, mul, ret, DepKind::Register));
    EXPECT_FALSE(hasArc(pdg, add, ret, DepKind::Register));
    (void)z;
}

TEST(Pdg, ConditionalDefsBothReachUse)
{
    FunctionBuilder b("cond");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId else_b = b.newBlock("else");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg r = b.constI(0); // def 1 of r
    b.br(c, then_b, else_b);
    b.setBlock(then_b);
    b.constInto(r, 1); // def 2 of r
    b.jmp(join);
    b.setBlock(else_b);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.mov(r); // use of r
    b.ret({s});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);

    InstrId def1 = f.block(top).instrs()[0];
    InstrId def2 = f.block(then_b).instrs()[0];
    InstrId use = f.block(join).instrs()[0];
    EXPECT_TRUE(hasArc(pdg, def1, use, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, def2, use, DepKind::Register));
}

TEST(Pdg, KilledDefDoesNotReach)
{
    FunctionBuilder b("kill");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg r = b.constI(1);   // def 1
    b.constInto(r, 2);     // def 2 kills def 1
    Reg s = b.mov(r);      // use
    b.ret({s});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    InstrId def1 = f.block(bb).instrs()[0];
    InstrId def2 = f.block(bb).instrs()[1];
    InstrId use = f.block(bb).instrs()[2];
    EXPECT_FALSE(hasArc(pdg, def1, use, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, def2, use, DepKind::Register));
}

TEST(Pdg, LoopCarriedRegisterDep)
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
    b.addInto(i, i, one); // def and use of i: loop carried
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    InstrId add = f.block(body).instrs()[1];
    // The add's def of i reaches its own use around the back edge.
    EXPECT_TRUE(hasArc(pdg, add, add, DepKind::Register));
}

TEST(Pdg, ControlArcsFromBranch)
{
    FunctionBuilder b("cd");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId else_b = b.newBlock("else");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, then_b, else_b);
    b.setBlock(then_b);
    Reg x = b.constI(1);
    b.jmp(join);
    b.setBlock(else_b);
    b.jmp(join);
    b.setBlock(join);
    b.ret({x});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    InstrId branch = f.block(top).terminator();
    InstrId def = f.block(then_b).instrs()[0];
    InstrId ret = f.block(join).terminator();
    EXPECT_TRUE(hasArc(pdg, branch, def, DepKind::Control));
    EXPECT_FALSE(hasArc(pdg, branch, ret, DepKind::Control));
}

TEST(Pdg, MemoryArc)
{
    FunctionBuilder b("mem");
    Reg a = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(5);
    b.store(a, 0, v, 2);
    Reg w = b.load(a, 0, 2);
    b.ret({w});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    InstrId st = f.block(bb).instrs()[1];
    InstrId ld = f.block(bb).instrs()[2];
    EXPECT_TRUE(hasArc(pdg, st, ld, DepKind::Memory));
}

TEST(Pdg, RetUsesLiveOuts)
{
    FunctionBuilder b("ret");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg x = b.constI(3);
    b.ret({x});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    InstrId def = f.block(bb).instrs()[0];
    InstrId ret = f.block(bb).terminator();
    EXPECT_TRUE(hasArc(pdg, def, ret, DepKind::Register));
}

// Property: every register arc's dst actually uses the register and
// src defines it; every control arc's src is a branch.
TEST(PdgProperty, ArcWellFormedness)
{
    Rng rng(616);
    for (int trial = 0; trial < 30; ++trial) {
        auto prog = generateProgram(rng);
        const Function &f = prog.func;
        Pdg pdg = buildPdg(f);
        for (const auto &arc : pdg.arcs()) {
            switch (arc.kind) {
              case DepKind::Register: {
                ASSERT_EQ(f.defOf(arc.src), arc.reg);
                auto uses = f.usesOf(arc.dst);
                ASSERT_TRUE(std::find(uses.begin(), uses.end(),
                                      arc.reg) != uses.end());
                break;
              }
              case DepKind::Control:
                ASSERT_TRUE(f.instr(arc.src).isBranch());
                break;
              case DepKind::Memory:
                ASSERT_TRUE(f.instr(arc.src).isMemoryAccess());
                ASSERT_TRUE(f.instr(arc.dst).isMemoryAccess());
                break;
            }
        }
    }
}

/**
 * Register arcs by their definition, one instruction-level walk per
 * def: (d, u, r) for every u that reads r at a point some path from
 * just after d reaches with no other def of r on the way. The walk
 * records a read before it stops at a def, so u = d (a loop-carried
 * self dependence) and reads by a redefining instruction count.
 */
std::vector<std::tuple<InstrId, InstrId, Reg>>
definitionalRegisterArcs(const Function &f)
{
    std::vector<std::tuple<InstrId, InstrId, Reg>> arcs;
    std::vector<int> seen(f.numInstrs(), -1);
    for (BlockId db = 0; db < f.numBlocks(); ++db) {
        const auto &dinstrs = f.block(db).instrs();
        for (size_t dpos = 0; dpos < dinstrs.size(); ++dpos) {
            const InstrId d = dinstrs[dpos];
            const Reg r = f.defOf(d);
            if (r == kNoReg)
                continue;
            // Work items are (block, pos) points; a point names the
            // instruction at it.
            std::vector<std::pair<BlockId, size_t>> work;
            auto step = [&](BlockId b, size_t pos) {
                if (pos < f.block(b).size()) {
                    work.push_back({b, pos});
                } else {
                    for (BlockId s : f.block(b).succs())
                        work.push_back({s, 0});
                }
            };
            step(db, dpos + 1);
            while (!work.empty()) {
                auto [b, pos] = work.back();
                work.pop_back();
                const InstrId u = f.block(b).instrs()[pos];
                if (seen[u] == d)
                    continue;
                seen[u] = d;
                auto uses = f.usesOf(u);
                if (std::find(uses.begin(), uses.end(), r) != uses.end())
                    arcs.emplace_back(d, u, r);
                if (f.defOf(u) != r)
                    step(b, pos + 1);
            }
        }
    }
    std::sort(arcs.begin(), arcs.end());
    return arcs;
}

/** The property inputs of test_analysis: 25 random structured
 *  programs, then the edge-split CFGs the pipeline analyses (36
 *  generated workloads and the 11 benchmark kernels). */
std::vector<std::pair<std::string, Function>>
pdgPropertyInputs(uint64_t seed)
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

// Property: the register arcs are exactly the reaching-definition
// relation (d defines r, u reads r, and a path from just after d
// reaches u with no other def of r), and no arc appears twice.
TEST(PdgProperty, RegisterArcsMatchDefinition)
{
    size_t total = 0;
    for (const auto &[name, f] : pdgPropertyInputs(808)) {
        Pdg pdg = buildPdg(f);
        std::vector<std::tuple<InstrId, InstrId, Reg>> got;
        std::vector<std::tuple<InstrId, InstrId, int, Reg>> keys;
        for (const PdgArc &arc : pdg.arcs()) {
            keys.emplace_back(arc.src, arc.dst,
                              static_cast<int>(arc.kind), arc.reg);
            if (arc.kind == DepKind::Register)
                got.emplace_back(arc.src, arc.dst, arc.reg);
        }
        std::sort(keys.begin(), keys.end());
        EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()),
                  keys.end())
            << name << ": duplicate arc";
        std::sort(got.begin(), got.end());
        auto expect = definitionalRegisterArcs(f);
        ASSERT_EQ(got, expect) << name;
        total += expect.size();
    }
    EXPECT_GT(total, 10000u);
}

/** No two arcs of @p pdg agree on (src, dst, kind, reg). */
bool
duplicateFree(const Pdg &pdg)
{
    std::vector<std::tuple<InstrId, InstrId, int, Reg>> keys;
    for (const PdgArc &arc : pdg.arcs())
        keys.emplace_back(arc.src, arc.dst, static_cast<int>(arc.kind),
                          arc.reg);
    std::sort(keys.begin(), keys.end());
    return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

// Property: the offset-array adjacency lists, for every instruction,
// exactly the arcs leaving (arcsFrom) and entering (arcsTo) it, in
// ascending arc order.
TEST(PdgProperty, AdjacencyListsEveryArcByEndpointAscending)
{
    size_t total = 0;
    for (const auto &[name, f] : pdgPropertyInputs(808)) {
        Pdg pdg = buildPdg(f);
        std::vector<std::vector<int>> from(f.numInstrs()),
            to(f.numInstrs());
        for (int a = 0; a < pdg.numArcs(); ++a) {
            from[pdg.arc(a).src].push_back(a);
            to[pdg.arc(a).dst].push_back(a);
        }
        for (InstrId i = 0; i < f.numInstrs(); ++i) {
            auto out = pdg.arcsFrom(i);
            auto in = pdg.arcsTo(i);
            ASSERT_EQ(std::vector<int>(out.begin(), out.end()), from[i])
                << name << " i" << i;
            ASSERT_EQ(std::vector<int>(in.begin(), in.end()), to[i])
                << name << " i" << i;
        }
        total += pdg.arcs().size();
    }
    EXPECT_GT(total, 10000u);
}

/** Arcs of @p pdg from @p src to @p dst carrying @p r. */
int
countArcs(const Pdg &pdg, InstrId src, InstrId dst, Reg r)
{
    int n = 0;
    for (int a : pdg.arcsFrom(src))
        n += pdg.arc(a).dst == dst && pdg.arc(a).reg == r;
    return n;
}

// `add z = y, y` reads y twice but gets one arc from y's def.
TEST(Pdg, RepeatedOperandGivesOneArc)
{
    FunctionBuilder b("twice");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1);
    Reg z = b.add(y, y);
    b.ret({z});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    EXPECT_TRUE(duplicateFree(pdg));
    const auto &il = f.block(bb).instrs();
    EXPECT_EQ(countArcs(pdg, il[1], il[2], y), 1);
}

// A Ret repeating a live-out gets one arc per reaching def.
TEST(Pdg, RepeatedLiveOutGivesOneArc)
{
    FunctionBuilder b("liveouts");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1);
    b.ret({y, x, y});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    EXPECT_TRUE(duplicateFree(pdg));
    const auto &il = f.block(bb).instrs();
    EXPECT_EQ(countArcs(pdg, il[1], f.block(bb).terminator(), y), 1);
}

// addArc on a built PDG keeps the dedup contract and re-indexes both
// adjacency lists.
TEST(Pdg, AddArcOnBuiltGraph)
{
    FunctionBuilder b("add");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1);
    b.ret({y});
    Function f = b.finish();
    Pdg pdg = buildPdg(f);
    const int before = pdg.numArcs();
    const auto &il = f.block(bb).instrs();

    pdg.addArc(pdg.arc(0)); // already present
    EXPECT_EQ(pdg.numArcs(), before);

    pdg.addArc({.src = il[0], .dst = il[2], .kind = DepKind::Control});
    ASSERT_EQ(pdg.numArcs(), before + 1);
    auto out = pdg.arcsFrom(il[0]);
    auto in = pdg.arcsTo(il[2]);
    EXPECT_EQ(out.back(), before);
    EXPECT_EQ(in.back(), before);
    EXPECT_TRUE(duplicateFree(pdg));
}

} // namespace
} // namespace gmt
