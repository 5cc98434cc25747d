#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"

namespace gmt
{
namespace
{

/** r0 = param; loop sums 0..r0-1; returns sum. */
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

TEST(IrBuilder, BuildsValidFunction)
{
    Function f = buildLoopSum();
    EXPECT_TRUE(verifyFunction(f).empty());
    EXPECT_EQ(f.numBlocks(), 3);
    EXPECT_EQ(f.params().size(), 1u);
    EXPECT_EQ(f.liveOuts().size(), 1u);
}

TEST(IrBuilder, EntryIsFirstBlock)
{
    Function f = buildLoopSum();
    EXPECT_EQ(f.entry(), 0);
}

TEST(IrBuilder, ExitBlockIsRetBlock)
{
    Function f = buildLoopSum();
    BlockId exit = f.exitBlock();
    ASSERT_NE(exit, kNoBlock);
    EXPECT_EQ(f.instr(f.block(exit).terminator()).op, Opcode::Ret);
}

TEST(IrFunction, UsesAndDefs)
{
    Function f = buildLoopSum();
    // The Ret uses the live-out.
    InstrId ret = f.block(f.exitBlock()).terminator();
    auto uses = f.usesOf(ret);
    ASSERT_EQ(uses.size(), 1u);
    EXPECT_EQ(uses[0], f.liveOuts()[0]);
    EXPECT_EQ(f.defOf(ret), kNoReg);

    // Every opcode, with both sources set and with either one
    // kNoReg: the uses are the first numSrcs() sources in order with
    // kNoReg skipped, except Ret, which lists the live-outs in order
    // (a repeated one included) and ignores its source fields.
    Function g("all_ops");
    BlockId bb = g.addBlock("b");
    Reg x = g.newReg(), y = g.newReg(), d = g.newReg();
    g.setLiveOuts({y, x, y});
    for (int o = 0; o <= static_cast<int>(Opcode::ConsumeSync); ++o) {
        const Opcode op = static_cast<Opcode>(o);
        for (auto [s1, s2] : {std::pair{x, y}, std::pair{kNoReg, y},
                              std::pair{x, kNoReg}}) {
            InstrId i = g.append(
                bb, {.op = op, .dst = d, .src1 = s1, .src2 = s2});
            std::vector<Reg> expect;
            if (op == Opcode::Ret) {
                expect = {y, x, y};
            } else {
                if (numSrcs(op) >= 1 && s1 != kNoReg)
                    expect.push_back(s1);
                if (numSrcs(op) >= 2 && s2 != kNoReg)
                    expect.push_back(s2);
            }
            auto got = g.usesOf(i);
            ASSERT_EQ(got.size(), expect.size()) << opcodeName(op);
            for (size_t k = 0; k < expect.size(); ++k)
                EXPECT_EQ(got[k], expect[k]) << opcodeName(op) << " " << k;
            EXPECT_EQ(std::vector<Reg>(got.begin(), got.end()), expect)
                << opcodeName(op);
            EXPECT_EQ(g.defOf(i), hasDest(op) ? d : kNoReg)
                << opcodeName(op);
        }
    }
    // Spot checks of the operand counts the loop relies on.
    InstrId st = g.append(
        bb, {.op = Opcode::Store, .src1 = x, .src2 = y});
    EXPECT_EQ(g.usesOf(st).size(), 2u);
    InstrId mov = g.append(
        bb, {.op = Opcode::Mov, .dst = d, .src1 = x, .src2 = y});
    ASSERT_EQ(g.usesOf(mov).size(), 1u);
    EXPECT_EQ(g.usesOf(mov)[0], x);
    InstrId cst = g.append(bb, {.op = Opcode::Const, .dst = d, .src1 = x});
    EXPECT_TRUE(g.usesOf(cst).empty());
}

TEST(IrFunction, PointBefore)
{
    Function f = buildLoopSum();
    const BasicBlock &body = f.block(1);
    InstrId second = body.instrs()[1];
    ProgramPoint p = f.pointBefore(second);
    EXPECT_EQ(p.block, 1);
    EXPECT_EQ(p.pos, 1);
}

TEST(IrFunction, InsertAtShiftsPositions)
{
    Function f = buildLoopSum();
    BlockId body = 1;
    size_t before = f.block(body).size();
    f.insertAt(body, 0, {.op = Opcode::Const, .dst = f.newReg(),
                         .imm = 42});
    EXPECT_EQ(f.block(body).size(), before + 1);
    EXPECT_EQ(f.instr(f.block(body).instrs()[0]).imm, 42);
}

TEST(IrVerifier, CatchesMidBlockTerminator)
{
    FunctionBuilder b("bad");
    BlockId bb = b.newBlock("b");
    BlockId cc = b.newBlock("c");
    b.setBlock(bb);
    b.jmp(cc);
    // Illegally append past the terminator.
    b.func().append(bb, {.op = Opcode::Const, .dst = b.func().newReg()});
    b.setBlock(cc);
    b.ret();
    Function f = b.finish();
    EXPECT_FALSE(verifyFunction(f).empty());
}

TEST(IrVerifier, CatchesMissingRet)
{
    FunctionBuilder b("bad2");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    b.jmp(bb); // infinite loop, no Ret anywhere
    Function f = b.finish();
    auto problems = verifyFunction(f);
    EXPECT_FALSE(problems.empty());
}

TEST(IrVerifier, CatchesUnreachableBlock)
{
    FunctionBuilder b("bad3");
    BlockId bb = b.newBlock("b");
    BlockId orphan = b.newBlock("orphan");
    b.setBlock(orphan);
    b.jmp(bb);
    b.setBlock(bb);
    b.ret();
    Function f = b.finish();
    auto problems = verifyFunction(f);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("unreachable"), std::string::npos);
}

TEST(IrVerifier, VerifyOrDieThrows)
{
    FunctionBuilder b("bad4");
    b.newBlock("b"); // empty block
    Function f = b.finish();
    EXPECT_THROW(verifyOrDie(f), FatalError);
}

TEST(IrVerifier, QueueIdRangeChecked)
{
    FunctionBuilder b("qrange");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(1);
    b.func().append(bb, {.op = Opcode::Produce, .src1 = v, .queue = 3});
    b.ret();
    Function f = b.finish();
    EXPECT_TRUE(verifyFunction(f, {.num_queues = 4}).empty());
    auto problems = verifyFunction(f, {.num_queues = 2});
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("outside allocated range"),
              std::string::npos);
}

TEST(IrVerifier, QueueUsedInBothRoles)
{
    // Pre-multiplexing, a thread is one endpoint of each of its
    // queues: producing and consuming the same id is a bug.
    FunctionBuilder b("qroles");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(1);
    b.func().append(bb, {.op = Opcode::Produce, .src1 = v, .queue = 0});
    b.func().append(
        bb, {.op = Opcode::Consume, .dst = b.func().newReg(), .queue = 0});
    b.ret();
    Function f = b.finish();
    EXPECT_TRUE(verifyFunction(f).empty()); // not checked by default
    auto problems = verifyFunction(f, {.unique_placement_queues = true});
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("both producer and consumer"),
              std::string::npos);
}

TEST(IrVerifier, QueueSharedByTwoPlacements)
{
    // Same role, same queue, different registers: two placements were
    // assigned one queue id.
    FunctionBuilder b("qshare");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(1);
    Reg w = b.constI(2);
    b.func().append(bb, {.op = Opcode::Produce, .src1 = v, .queue = 0});
    b.func().append(bb, {.op = Opcode::Produce, .src1 = w, .queue = 0});
    b.ret();
    Function f = b.finish();
    auto problems = verifyFunction(f, {.unique_placement_queues = true});
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("two placements on one queue"),
              std::string::npos);

    // Repeating the *same* placement's op at several points is fine.
    FunctionBuilder b2("qrepeat");
    BlockId cc = b2.newBlock("b");
    b2.setBlock(cc);
    Reg u = b2.constI(1);
    b2.func().append(cc, {.op = Opcode::Produce, .src1 = u, .queue = 0});
    b2.func().append(cc, {.op = Opcode::Produce, .src1 = u, .queue = 0});
    b2.ret();
    Function f2 = b2.finish();
    EXPECT_TRUE(
        verifyFunction(f2, {.unique_placement_queues = true}).empty());
}

TEST(IrVerifier, VerifyOrDieNamesFunctionAndContext)
{
    FunctionBuilder b("culprit");
    b.newBlock("b"); // empty block: invalid
    Function f = b.finish();
    try {
        verifyOrDie(f, {}, "unit-test stage");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("@culprit"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unit-test stage"), std::string::npos) << msg;
    }
}

TEST(IrPrinter, ContainsMnemonicsAndLabels)
{
    Function f = buildLoopSum();
    std::string text = functionToString(f);
    EXPECT_NE(text.find("func @loop_sum"), std::string::npos);
    EXPECT_NE(text.find("head:"), std::string::npos);
    EXPECT_NE(text.find("cmplt"), std::string::npos);
    EXPECT_NE(text.find("br "), std::string::npos);
    EXPECT_NE(text.find("ret r"), std::string::npos);
}

TEST(IrPrinter, CommInstrFormat)
{
    FunctionBuilder b("comm");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(1);
    b.func().append(bb, {.op = Opcode::Produce, .src1 = v, .queue = 3});
    b.ret();
    Function f = b.finish();
    std::string text = functionToString(f);
    EXPECT_NE(text.find("produce [q3] = r0"), std::string::npos);
}

TEST(EdgeSplit, DiamondHasNoCriticalEdges)
{
    FunctionBuilder b("diamond");
    BlockId top = b.newBlock("top");
    BlockId left = b.newBlock("left");
    BlockId right = b.newBlock("right");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg c = b.constI(1);
    b.br(c, left, right);
    b.setBlock(left);
    b.jmp(join);
    b.setBlock(right);
    b.jmp(join);
    b.setBlock(join);
    b.ret();
    Function f = b.finish();
    EXPECT_EQ(splitCriticalEdges(f), 0);
}

TEST(EdgeSplit, SplitsLoopBackEdge)
{
    // head -> body; body -(br)-> body|exit. The edge body->body is
    // critical (body has 2 succs, body has 2 preds).
    Function f = ([] {
        FunctionBuilder b("loop");
        BlockId head = b.newBlock("head");
        BlockId body = b.newBlock("body");
        BlockId exit = b.newBlock("exit");
        b.setBlock(head);
        Reg c = b.constI(1);
        b.jmp(body);
        b.setBlock(body);
        b.br(c, body, exit);
        b.setBlock(exit);
        b.ret();
        return b.finish();
    })();
    int before_blocks = f.numBlocks();
    int split = splitCriticalEdges(f);
    EXPECT_EQ(split, 1);
    EXPECT_EQ(f.numBlocks(), before_blocks + 1);
    EXPECT_TRUE(verifyFunction(f).empty());
    // No critical edges remain.
    EXPECT_EQ(splitCriticalEdges(f), 0);
}

TEST(EdgeSplit, PreservesBranchSlotOrder)
{
    Function f = ([] {
        FunctionBuilder b("slots");
        BlockId a = b.newBlock("a");
        BlockId t = b.newBlock("t");
        BlockId join = b.newBlock("join");
        b.setBlock(a);
        Reg c = b.constI(1);
        b.br(c, join, t); // taken -> join (critical: join has 2 preds)
        b.setBlock(t);
        b.jmp(join);
        b.setBlock(join);
        b.ret();
        return b.finish();
    })();
    splitCriticalEdges(f);
    // Taken slot (index 0) must now point at the split block, which
    // jumps to join.
    BlockId taken = f.block(0).succs()[0];
    EXPECT_EQ(f.block(taken).succs()[0], 2);
    EXPECT_TRUE(verifyFunction(f).empty());
}

} // namespace
} // namespace gmt
