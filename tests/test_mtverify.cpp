#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "coco/validate.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "mtverify/mtverify.hpp"
#include "mtverify/queue_balance.hpp"
#include "mtverify/thread_map.hpp"
#include "pdg/pdg_builder.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------
// Harness: build a full (function, pdg, partition, plan, program) cell
// with stable addresses, then let each test mutate the emitted program
// (or the witness) and assert which diagnostic code trips.
// ---------------------------------------------------------------------

struct Cell
{
    std::unique_ptr<Function> f;
    std::unique_ptr<Pdg> pdg;
    ThreadPartition part;
    CommPlan plan;
    MtProgram prog;

    MtVerifyInput
    input() const
    {
        return {.orig = f.get(),
                .pdg = pdg.get(),
                .partition = &part,
                .plan = &plan,
                .queue_of = nullptr,
                .prog = &prog};
    }

    MtVerifyResult verify() const { return verifyMtProgram(input()); }
};

Cell
makeCell(Function fin, ThreadPartition part, int queue_capacity = 32)
{
    Cell c;
    c.f = std::make_unique<Function>(std::move(fin));
    verifyOrDie(*c.f);
    c.pdg = std::make_unique<Pdg>(buildPdg(*c.f));
    auto pdom = DominatorTree::postDominators(*c.f);
    ControlDependence cd(*c.f, pdom);
    c.part = std::move(part);
    c.plan = defaultMtcgPlan(*c.f, *c.pdg, c.part, cd);
    c.prog = runMtcg(*c.f, *c.pdg, c.part, c.plan, cd,
                     {.queue_capacity = queue_capacity});
    return c;
}

bool
hasCode(const MtVerifyResult &r, MtvCode code)
{
    for (const MtvDiag &d : r.diags)
        if (d.code == code)
            return true;
    return false;
}

/** First instruction in @p f's block lists matching @p pred. */
struct Found
{
    BlockId block = kNoBlock;
    int pos = -1;
    InstrId id = kNoInstr;
};

template <typename Pred>
Found
findInstr(const Function &f, Pred pred)
{
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &list = f.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            if (pred(f.instr(list[p])))
                return {b, p, list[p]};
    }
    return {};
}

void
eraseAt(Function &f, Found at)
{
    ASSERT_NE(at.id, kNoInstr);
    auto &list = f.block(at.block).instrs();
    list.erase(list.begin() + at.pos);
}

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

/** Straight line, two one-way queues: t0 defines a = x + 1 and
 *  c = x * x; t1 computes a + c and returns it. */
Cell
twoProducerCell()
{
    FunctionBuilder b("twoprod");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg a = b.addImm(x, 1); // Const + Add
    Reg c = b.mul(x, x);
    Reg s = b.add(a, c);
    b.ret({s});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 1);
    const auto &il = f.block(bb).instrs();
    p.assign[il[0]] = 0; // Const 1
    p.assign[il[1]] = 0; // a = x + 1
    p.assign[il[2]] = 0; // c = x * x
    return makeCell(std::move(f), std::move(p));
}

/** Bidirectional pipeline: t0 sends a to t1, t1 sends m = a * a back,
 *  t0 returns m + x. The produce and consume are adjacent in t0. */
Cell
bidirectionalCell()
{
    FunctionBuilder b("bidir");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg a = b.addImm(x, 1);
    Reg m = b.mul(a, a);
    Reg d = b.add(m, x);
    b.ret({d});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    p.assign[f.block(bb).instrs()[2]] = 1; // m = a * a
    return makeCell(std::move(f), std::move(p));
}

/** Cross-thread memory dependence: t0 stores, t1 loads the same alias
 *  class, so the plan carries exactly one memory-sync placement. */
Cell
memorySyncCell()
{
    FunctionBuilder b("memsync");
    Reg x = b.param(); // address
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(7);
    b.store(x, 0, v, 1);
    Reg w = b.load(x, 0, 1);
    Reg s = b.addImm(w, 1);
    b.ret({s});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 1);
    const auto &il = f.block(bb).instrs();
    p.assign[il[0]] = 0; // Const 7
    p.assign[il[1]] = 0; // Store
    return makeCell(std::move(f), std::move(p));
}

/** r defined under a branch in t0, used by t1: t1 replicates the
 *  branch and consumes r at two points (one per reaching def). */
Cell
conditionalCell()
{
    FunctionBuilder b("cond");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg r = b.constI(10);
    b.br(c, then_b, join);
    b.setBlock(then_b);
    b.constInto(r, 20);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.addImm(r, 1);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i : f.block(join).instrs())
        p.assign[i] = 1;
    return makeCell(std::move(f), std::move(p));
}

/** Branch and both its dependents stay in t0; t1 owns only the
 *  control-independent join. No communication at all. */
Cell
controlFreeCell()
{
    FunctionBuilder b("ctrlfree");
    Reg c = b.param();
    Reg x = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, then_b, join);
    b.setBlock(then_b);
    (void)b.constI(20); // t0-only work under the branch
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.addImm(x, 1);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i : f.block(join).instrs())
        p.assign[i] = 1;
    return makeCell(std::move(f), std::move(p));
}

// ---------------------------------------------------------------------
// Clean runs: correct emission verifies with zero findings.
// ---------------------------------------------------------------------

TEST(MtVerifyClean, StraightLineTwoQueues)
{
    auto res = twoProducerCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, BidirectionalPipeline)
{
    auto res = bidirectionalCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, MemorySynchronization)
{
    auto res = memorySyncCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, ConditionalWithDuplicatedBranch)
{
    auto res = conditionalCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

/** Every figure cell — 11 workloads x {DSWP, GREMIO} x {default,
 *  COCO} — must verify clean, exactly as the verify-mt pass and
 *  gmt-lint demand. */
TEST(MtVerifyClean, AllWorkloadCells)
{
    int hb_pairs = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.simulate = false;
                po.verify_mt = false; // run the verifier ourselves
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                auto res = verifyMtProgram(
                    {.orig = &ctx.ir->func,
                     .pdg = &ctx.pdg->pdg,
                     .partition = &ctx.partition->partition,
                     .plan = &ctx.plan->plan,
                     .queue_of = &ctx.prog->queue_of,
                     .prog = &ctx.prog->prog});
                EXPECT_TRUE(res.diags.empty())
                    << ctx.cellId() << "\n"
                    << res.render();
                hb_pairs += res.hb_pairs;
            }
        }
    }
    // The matrix must actually exercise the happens-before engine:
    // some cells carry cross-thread memory deps, each proven ordered.
    EXPECT_GT(hb_pairs, 0);
}

/** Queue multiplexing changes the witness (queue_of) but must still
 *  verify clean. */
TEST(MtVerifyClean, MultiplexedQueues)
{
    auto all = allWorkloads();
    for (size_t wi = 0; wi < 3 && wi < all.size(); ++wi) {
        PipelineOptions po;
        po.max_queues = 4;
        po.simulate = false;
        po.verify_mt = false;
        PipelineContext ctx(all[wi], po);
        PassManager::codegenPipeline().run(ctx);
        auto res = verifyMtProgram(
            {.orig = &ctx.ir->func,
             .pdg = &ctx.pdg->pdg,
             .partition = &ctx.partition->partition,
             .plan = &ctx.plan->plan,
             .queue_of = &ctx.prog->queue_of,
             .prog = &ctx.prog->prog});
        EXPECT_TRUE(res.diags.empty())
            << ctx.cellId() << "\n"
            << res.render();
    }
}

// ---------------------------------------------------------------------
// Mutation harness: each injected bug class must trip its specific
// diagnostic code.
// ---------------------------------------------------------------------

TEST(MtVerifyMutation, DroppedProduce)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::Produce;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingProduce)) << res.render();
    // The queue also ends imbalanced: one consume, zero produces.
    EXPECT_TRUE(hasCode(res, MtvCode::QueueImbalance)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DroppedConsume)
{
    Cell cell = twoProducerCell();
    Function &t1 = cell.prog.threads[1];
    eraseAt(t1, findInstr(t1, [](const Instr &i) {
                return i.op == Opcode::Consume;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingConsume)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, SwappedQueueIds)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    // Swap the queue fields of t0's two produces.
    std::vector<InstrId> prods;
    for (InstrId i : t0.block(0).instrs())
        if (t0.instr(i).op == Opcode::Produce)
            prods.push_back(i);
    ASSERT_EQ(prods.size(), 2u);
    std::swap(t0.instr(prods[0]).queue, t0.instr(prods[1]).queue);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueMismatch)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ConsumeReorderedBeforeProduceDeadlocks)
{
    Cell cell = bidirectionalCell();
    Function &t0 = cell.prog.threads[0];
    // t0 emits produce(a) immediately before consume(m). Swapping them
    // makes t0 wait on t1's reply before sending the request: a
    // classic cross-thread wait-for cycle.
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    Found co = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Consume;
    });
    ASSERT_NE(pr.id, kNoInstr);
    ASSERT_NE(co.id, kNoInstr);
    ASSERT_EQ(pr.block, co.block);
    auto &list = t0.block(pr.block).instrs();
    std::swap(list[pr.pos], list[co.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DeadlockCycle)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DroppedMemorySyncToken)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingSyncToken))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, SyncTokenDemotedToData)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    Found ps = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::ProduceSync;
    });
    ASSERT_NE(ps.id, kNoInstr);
    t0.instr(ps.id).op = Opcode::Produce;
    t0.instr(ps.id).src1 = 0; // any valid register
    auto res = cell.verify();
    // Emission disagrees with the plan's kind at that point...
    EXPECT_TRUE(hasCode(res, MtvCode::CommKindMismatch))
        << res.render();
    // ...and the endpoints disagree data-vs-sync on the matched token.
    EXPECT_TRUE(hasCode(res, MtvCode::TokenKindMismatch))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ProduceCarriesWrongRegister)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    t0.instr(pr.id).src1 = 0; // the parameter, not the planned reg
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::RegMismatch)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ExtraUnjustifiedComm)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    Instr dup = t0.instr(pr.id);
    t0.insertAt(pr.block, pr.pos + 1, dup);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::ExtraComm)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, QueueIdOutOfRange)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    t0.instr(pr.id).queue = 99;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::BadQueueId)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, QueueEndpointRolesConflict)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    // Turn one of t0's produces into a consume: its queue now has
    // consumers in both threads.
    Instr &in = t0.instr(pr.id);
    in.op = Opcode::Consume;
    in.dst = in.src1;
    in.src1 = kNoReg;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueEndpointConflict))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ProduceMissingOnOnePath)
{
    Cell cell = conditionalCell();
    Function &t0 = cell.prog.threads[0];
    // The then-block image (terminated by a Jmp) carries the produce
    // for the conditional redefinition; dropping it leaves the queue's
    // token count path-dependent at the join.
    Found pr{};
    for (BlockId b = 0; b < t0.numBlocks() && pr.id == kNoInstr; ++b) {
        InstrId term = t0.block(b).terminator();
        if (term == kNoInstr || t0.instr(term).op != Opcode::Jmp)
            continue;
        const auto &list = t0.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            if (t0.instr(list[p]).op == Opcode::Produce)
                pr = {b, p, list[p]};
    }
    eraseAt(t0, pr);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueImbalance)) << res.render();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingProduce)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, OwnedInstructionNotCopied)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::Mul;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyOperandsMangled)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    Instr &in = t0.instr(mul.id);
    ASSERT_NE(in.src2 + 1, in.src1);
    in.src2 = in.src2 + 1; // a different (valid) register
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MangledInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyWithoutOrigin)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    t0.instr(mul.id).origin = kNoInstr;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::OrphanInstr)) << res.render();
    // The owned original now has no copy either.
    EXPECT_TRUE(hasCode(res, MtvCode::MissingInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyHoistedIntoWrongBlock)
{
    Cell cell = conditionalCell();
    Function &t0 = cell.prog.threads[0];
    // Move the then-block's redefinition copy into the entry block's
    // image (above the branch), keeping the CFG structurally valid.
    Found c = findInstr(t0, [&](const Instr &i) {
        return i.op == Opcode::Const && i.origin != kNoInstr &&
               cell.f->instr(i.origin).block != cell.f->entry();
    });
    ASSERT_NE(c.id, kNoInstr);
    auto &from = t0.block(c.block).instrs();
    from.erase(from.begin() + c.pos);
    BlockId entry = t0.entry();
    auto &to = t0.block(entry).instrs();
    to.insert(to.begin(), c.id);
    t0.instr(c.id).block = entry;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::InstrWrongBlock))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, NonRetThreadDeclaresLiveOuts)
{
    Cell cell = twoProducerCell();
    cell.prog.threads[0].setLiveOuts({0}); // t1 owns the Ret
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::InterfaceMismatch))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DuplicatedFlagClearedIsWarning)
{
    Cell cell = conditionalCell();
    Function &t1 = cell.prog.threads[1];
    Found br = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Br;
    });
    ASSERT_NE(br.id, kNoInstr);
    ASSERT_TRUE(t1.instr(br.id).duplicated);
    t1.instr(br.id).duplicated = false;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DupFlagWrong)) << res.render();
    // Stats hygiene only: still semantically correct code.
    EXPECT_TRUE(res.ok()) << res.render();
    EXPECT_GE(res.warnings(), 1);
}

TEST(MtVerifyMutation, TerminatorOriginLost)
{
    Cell cell = twoProducerCell();
    Function &t1 = cell.prog.threads[1];
    InstrId term = t1.block(t1.entry()).terminator();
    ASSERT_NE(term, kNoInstr);
    t1.instr(term).origin = kNoInstr;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::BlockMapBroken)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, StructurallyInvalidThread)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    t0.instr(mul.id).dst = t0.numRegs() + 5;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::Structural)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, IntraThreadCopiesReordered)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    // The Const feeding a = x + 1 must stay before the Add.
    Found k = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Const;
    });
    Found add = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Add;
    });
    ASSERT_NE(k.id, kNoInstr);
    ASSERT_NE(add.id, kNoInstr);
    ASSERT_EQ(k.block, add.block);
    auto &list = t0.block(k.block).instrs();
    std::swap(list[k.pos], list[add.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DepIntraThreadOrder))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ControlArcWithoutBranchCopy)
{
    Cell cell = controlFreeCell();
    ASSERT_TRUE(cell.verify().diags.empty());
    // Pretend the join's add is control-dependent on the branch: t1
    // would then need a copy of it, which it does not have.
    InstrId br = cell.f->block(cell.f->entry()).terminator();
    ASSERT_TRUE(cell.f->instr(br).isBranch());
    InstrId victim = kNoInstr;
    for (InstrId i = 0; i < cell.f->numInstrs(); ++i)
        if (cell.f->instr(i).op == Opcode::Add &&
            cell.part.threadOf(i) == 1)
            victim = i;
    ASSERT_NE(victim, kNoInstr);
    const int added = cell.pdg->numArcs();
    cell.pdg->addArc(
        {.src = br, .dst = victim, .kind = DepKind::Control});
    ASSERT_EQ(cell.pdg->numArcs(), added + 1);
    auto out = cell.pdg->arcsFrom(br);
    auto in = cell.pdg->arcsTo(victim);
    EXPECT_NE(std::find(out.begin(), out.end(), added), out.end());
    EXPECT_NE(std::find(in.begin(), in.end(), added), in.end());
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::ControlUncovered))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, PlanWitnessLosesItsPoints)
{
    Cell cell = twoProducerCell();
    // Clearing a placement's points makes the cross-thread arc
    // uncovered (and the still-emitted comm unjustified).
    ASSERT_FALSE(cell.plan.placements.empty());
    cell.plan.placements[0].points.clear();
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DepUncovered)) << res.render();
    EXPECT_TRUE(hasCode(res, MtvCode::ExtraComm)) << res.render();
    EXPECT_FALSE(res.ok());
}

// ---------------------------------------------------------------------
// Theorem 2 alone: a queue whose every original block nets zero tokens
// skips the token-count dataflow; any other queue still runs it.
// ---------------------------------------------------------------------

/** checkQueueBalance's findings on the cell's emitted program. */
std::vector<MtvDiag>
balanceDiags(const Cell &cell)
{
    std::vector<MtvDiag> diags;
    std::vector<ThreadCodeMap> maps;
    for (int t = 0; t < cell.part.num_threads; ++t)
        maps.push_back(buildThreadCodeMap(*cell.f, cell.prog.threads[t],
                                          t, diags));
    EXPECT_TRUE(diags.empty());
    checkQueueBalance(*cell.f, cell.prog, maps, diags);
    return diags;
}

bool
hasDiag(const std::vector<MtvDiag> &diags, MtvCode code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const MtvDiag &d) { return d.code == code; });
}

/** v = x + 1 in block a (t0), v + 2 in its successor c (t1): one
 *  queue, produced and consumed in a's images. */
Cell
crossBlockCell()
{
    FunctionBuilder b("xblock");
    Reg x = b.param();
    BlockId a = b.newBlock("a");
    BlockId c = b.newBlock("c");
    b.setBlock(a);
    Reg v = b.addImm(x, 1);
    b.jmp(c);
    b.setBlock(c);
    Reg s = b.addImm(v, 2);
    b.ret({s});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i : f.block(c).instrs())
        p.assign[i] = 1;
    return makeCell(std::move(f), std::move(p));
}

/** Move the instruction at @p at to the front of the (single)
 *  successor of its block. */
void
moveToSuccessor(Function &t, Found at)
{
    ASSERT_NE(at.id, kNoInstr);
    const BlockId succ = t.block(at.block).succs().at(0);
    eraseAt(t, at);
    auto &list = t.block(succ).instrs();
    list.insert(list.begin(), at.id);
    t.instr(at.id).block = succ;
}

/** The first instruction of @p t with opcode @p op in a block ending
 *  in a Jmp. */
Found
findInJmpBlock(const Function &t, Opcode op)
{
    for (BlockId b = 0; b < t.numBlocks(); ++b) {
        InstrId term = t.block(b).terminator();
        if (term == kNoInstr || t.instr(term).op != Opcode::Jmp)
            continue;
        const auto &list = t.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            if (t.instr(list[p]).op == op)
                return {b, p, list[p]};
    }
    return {};
}

TEST(MtVerifyQueueBalance, CrossBlockQueueTakesTheDataflow)
{
    Cell cell = crossBlockCell();
    ASSERT_EQ(cell.prog.num_queues, 1);
    EXPECT_TRUE(balanceDiags(cell).empty());
    // Produced in a, consumed in c: a nets +1 and c -1, so the count
    // is 1 at c's entry and 0 at the exit.
    moveToSuccessor(cell.prog.threads[1],
                    findInJmpBlock(cell.prog.threads[1], Opcode::Consume));
    EXPECT_TRUE(balanceDiags(cell).empty());
}

TEST(MtVerifyQueueBalance, CrossBlockImbalanceStillReported)
{
    Cell cell = crossBlockCell();
    Function &t1 = cell.prog.threads[1];
    moveToSuccessor(t1, findInJmpBlock(t1, Opcode::Consume));
    // A second consume in c leaves the exit count at -1.
    Found co = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Consume;
    });
    ASSERT_NE(co.id, kNoInstr);
    t1.insertAt(co.block, co.pos + 1, t1.instr(co.id));
    EXPECT_TRUE(hasDiag(balanceDiags(cell), MtvCode::QueueImbalance));

    // Per-block deltas that sum to zero but depend on the path: the
    // consume of the then-block's produce moved to the join, which the
    // path around the then-block reaches with count 0.
    Cell cond = conditionalCell();
    Function &c1 = cond.prog.threads[1];
    ASSERT_TRUE(balanceDiags(cond).empty());
    moveToSuccessor(c1, findInJmpBlock(c1, Opcode::Consume));
    EXPECT_TRUE(hasDiag(balanceDiags(cond), MtvCode::QueueImbalance));
}

TEST(MtVerifyQueueBalance, BlockBalancedKindMismatchStillReported)
{
    // One produce and one consume in the same block image: the queue
    // nets zero in every block and skips the dataflow, but the data
    // produce still meets a sync consume.
    Cell cell = crossBlockCell();
    Function &t1 = cell.prog.threads[1];
    Found co = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Consume;
    });
    ASSERT_NE(co.id, kNoInstr);
    t1.instr(co.id).op = Opcode::ConsumeSync;
    t1.instr(co.id).dst = kNoReg;
    auto diags = balanceDiags(cell);
    EXPECT_TRUE(hasDiag(diags, MtvCode::TokenKindMismatch));
    EXPECT_FALSE(hasDiag(diags, MtvCode::QueueImbalance));
}

// ---------------------------------------------------------------------
// Theorem 4: happens-before race freedom (hb.hpp). One injected bug
// per code, plus clean runs over generated workloads.
// ---------------------------------------------------------------------

TEST(MtVerifyHb, DroppedSyncProduceIsDataRace)
{
    Cell cell = memorySyncCell();
    ASSERT_TRUE(cell.verify().diags.empty());
    // Without the produce.sync the store and the cross-thread load
    // share no sync chain at all: a data race, not just a plan
    //-fidelity gap.
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_FALSE(hasCode(res, MtvCode::HbSyncWrongPath))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyHb, ConsumeMovedPastLoadIsSyncWrongPath)
{
    Cell cell = memorySyncCell();
    // The sync chain still exists (produce.sync matches
    // consume.sync), but the load now retires before the token
    // arrives, so the chain no longer orders the conflicting pair.
    Function &t1 = cell.prog.threads[1];
    Found cs = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::ConsumeSync;
    });
    Found ld = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Load;
    });
    ASSERT_NE(cs.id, kNoInstr);
    ASSERT_NE(ld.id, kNoInstr);
    ASSERT_EQ(cs.block, ld.block);
    ASSERT_LT(cs.pos, ld.pos);
    auto &list = t1.block(cs.block).instrs();
    std::swap(list[cs.pos], list[ld.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbSyncWrongPath))
        << res.render();
    EXPECT_FALSE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyHb, SyncOrderingNothingIsRedundantWarning)
{
    Cell cell = twoProducerCell();
    // Graft a memory-sync placement onto a cell with no memory
    // operations at all, and emit its token pair faithfully: every
    // theorem holds, but the sync orders nothing.
    BlockId bb = cell.f->entry();
    int pi = static_cast<int>(cell.plan.placements.size());
    cell.plan.placements.push_back({.kind = CommKind::MemorySync,
                                    .src_thread = 0,
                                    .dst_thread = 1,
                                    .points = {{bb, 0}}});
    Function &t0 = cell.prog.threads[0];
    Function &t1 = cell.prog.threads[1];
    t0.insertAt(t0.entry(), 0,
                {.op = Opcode::ProduceSync,
                 .queue = static_cast<QueueId>(pi)});
    t1.insertAt(t1.entry(), 0,
                {.op = Opcode::ConsumeSync,
                 .queue = static_cast<QueueId>(pi)});
    cell.prog.num_queues = pi + 1;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbRedundantSync))
        << res.render();
    EXPECT_TRUE(res.ok()) << res.render(); // warning, not error
    EXPECT_EQ(res.errors(), 0);
}

TEST(MtVerifyHb, SkippableViaCheckHbFlag)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    MtVerifyInput in = cell.input();
    in.check_hb = false;
    auto res = verifyMtProgram(in);
    EXPECT_FALSE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_EQ(res.hb_pairs, 0);
    // The plan-fidelity gap is still an error either way.
    EXPECT_FALSE(res.ok());
}

/** Generated workloads, both schedulers: zero HB findings. (Both
 *  partitioners keep loop-carried alias classes in one thread, so
 *  these cells mostly discharge trivially; the built-in workload
 *  matrix above is what exercises nonzero proof obligations.) */
TEST(MtVerifyHb, GeneratedCorpusRaceFree)
{
    for (uint64_t seed : {11u, 23u, 47u}) {
        Workload w = generateWorkload(seed);
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.simulate = false;
            po.verify_mt = false; // run the verifier ourselves
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            auto res = verifyMtProgram(
                {.orig = &ctx.ir->func,
                 .pdg = &ctx.pdg->pdg,
                 .partition = &ctx.partition->partition,
                 .plan = &ctx.plan->plan,
                 .queue_of = &ctx.prog->queue_of,
                 .prog = &ctx.prog->prog});
            EXPECT_TRUE(res.diags.empty())
                << ctx.cellId() << "\n"
                << res.render();
        }
    }
}

// ---------------------------------------------------------------------
// Plan-validation diagnostics (coco/validate.cpp shares the code
// space) and diag utilities.
// ---------------------------------------------------------------------

TEST(MtVerifyPlan, InvalidPointAndUncoveredArcCodes)
{
    Cell cell = twoProducerCell();
    auto pdom = DominatorTree::postDominators(*cell.f);
    ControlDependence cd(*cell.f, pdom);

    CommPlan bad = cell.plan;
    ASSERT_FALSE(bad.placements.empty());
    bad.placements[0].points = {{0, 999}};
    auto diags =
        validatePlanDiags(*cell.f, *cell.pdg, cell.part, cd, bad);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].code, MtvCode::PlanInvalidPoint);

    CommPlan uncovered = cell.plan;
    uncovered.placements[0].points.clear();
    diags = validatePlanDiags(*cell.f, *cell.pdg, cell.part, cd,
                              uncovered);
    bool found = false;
    for (const MtvDiag &d : diags)
        found |= d.code == MtvCode::PlanUncoveredArc;
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Theorem 1 coverage: plan validation and verify-mt run one uncovered-
// path search, so given the same plan they must flag the same arcs.
// ---------------------------------------------------------------------

using UncoveredSite = std::tuple<int, BlockId, InstrId>;

/** (thread, block, instr) of each PlanUncoveredArc validatePlanDiags
 *  finds in @p plan, and of each DepUncovered verify-mt finds given
 *  the same plan as its witness for @p prog. */
std::pair<std::set<UncoveredSite>, std::set<UncoveredSite>>
uncoveredBoth(const Function &f, const Pdg &pdg,
              const ThreadPartition &part, const ControlDependence &cd,
              const CommPlan &plan, const MtProgram &prog,
              const std::vector<int> *queue_of)
{
    std::set<UncoveredSite> validator, verifier;
    for (const MtvDiag &d : validatePlanDiags(f, pdg, part, cd, plan))
        if (d.code == MtvCode::PlanUncoveredArc)
            validator.insert({d.thread, d.block, d.instr});
    MtVerifyInput in{.orig = &f,
                     .pdg = &pdg,
                     .partition = &part,
                     .plan = &plan,
                     .queue_of = queue_of,
                     .prog = &prog,
                     .check_hb = false};
    for (const MtvDiag &d : verifyMtProgram(in).diags)
        if (d.code == MtvCode::DepUncovered)
            verifier.insert({d.thread, d.block, d.instr});
    return {validator, verifier};
}

/** The Fig. 7 matrix (every kernel x {DSWP, GREMIO} x COCO off/on),
 *  each placement's first point dropped in turn. */
TEST(MtVerifyPlan, ValidatorAndVerifierAgreeOnUncoveredPaths)
{
    size_t drops = 0, flagged = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.simulate = false;
                po.verify_mt = false;
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                const CommPlan &plan = ctx.plan->plan;
                for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
                    CommPlan dropped = plan;
                    auto &points = dropped.placements[pi].points;
                    ASSERT_FALSE(points.empty()) << ctx.cellId();
                    points.erase(points.begin());
                    auto [validator, verifier] = uncoveredBoth(
                        ctx.ir->func, ctx.pdg->pdg,
                        ctx.partition->partition, ctx.pdg->cd, dropped,
                        ctx.prog->prog, &ctx.prog->queue_of);
                    EXPECT_EQ(validator, verifier)
                        << ctx.cellId() << " placement " << pi;
                    ++drops;
                    flagged += validator.size();
                }
            }
        }
    }
    EXPECT_GT(drops, 500u);
    EXPECT_GT(flagged, 500u);
}

/** Loop: T1 reads r at the top of the body, T0 redefines it below.
 *  A plan that communicates r only after the entry def leaves the
 *  loop-carried arc uncovered on exactly one path, the one around the
 *  back edge. */
TEST(MtVerifyPlan, UncoveredPathAroundBackEdge)
{
    FunctionBuilder b("backedge");
    Reg n = b.param();
    BlockId entry = b.newBlock("entry");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(entry);
    Reg r = b.constI(0);
    Reg acc = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    b.addInto(acc, acc, r); // T1 reads r
    Reg one = b.constI(1);
    b.addInto(r, r, one); // T0 redefines r
    Reg c = b.cmpLt(r, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({acc});
    Function f = b.finish();
    splitCriticalEdges(f);

    const auto &bi = f.block(body).instrs();
    const InstrId use = bi[0];
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    p.assign[f.block(entry).instrs()[1]] = 1; // acc = 0
    p.assign[use] = 1;
    for (InstrId i : f.block(exit).instrs())
        p.assign[i] = 1;
    Cell cell = makeCell(std::move(f), std::move(p));
    ASSERT_TRUE(cell.verify().ok()) << cell.verify().render();
    ControlDependence cd(*cell.f,
                         DominatorTree::postDominators(*cell.f));

    // Communicate r only right after the entry def.
    CommPlan plan = cell.plan;
    int rp = -1;
    for (size_t pi = 0; pi < plan.placements.size(); ++pi)
        if (plan.placements[pi].kind == CommKind::RegisterData &&
            plan.placements[pi].reg == r)
            rp = static_cast<int>(pi);
    ASSERT_NE(rp, -1);
    plan.placements[rp].points = {{entry, 1}};

    auto [validator, verifier] = uncoveredBoth(
        *cell.f, *cell.pdg, cell.part, cd, plan, cell.prog, nullptr);
    std::set<UncoveredSite> expect{{1, body, use}};
    EXPECT_EQ(validator, expect);
    EXPECT_EQ(verifier, expect);

    // Adding the point right after the loop's def covers it.
    plan.placements[rp].points.push_back({body, 3});
    auto [v2, m2] = uncoveredBoth(*cell.f, *cell.pdg, cell.part, cd,
                                  plan, cell.prog, nullptr);
    EXPECT_TRUE(v2.empty());
    EXPECT_TRUE(m2.empty());
}

/** Diamond: T0 defines r on entry, T1 reads it at the join. The plan
 *  covers only the right arm; on the left arm T1 redefines r, which
 *  kills the path, so nothing is uncovered. With the left arm
 *  defining another register instead, the left path escapes. */
TEST(MtVerifyPlan, RedefinitionKillsUncoveredPath)
{
    for (bool kill : {true, false}) {
        FunctionBuilder b("killpath");
        Reg cnd = b.param();
        BlockId entry = b.newBlock("entry");
        BlockId left = b.newBlock("left");
        BlockId right = b.newBlock("right");
        BlockId join = b.newBlock("join");
        b.setBlock(entry);
        Reg r = b.constI(1);
        Reg other = b.constI(0);
        b.br(cnd, left, right);
        b.setBlock(left);
        b.constInto(kill ? r : other, 2);
        b.jmp(join);
        b.setBlock(right);
        b.jmp(join);
        b.setBlock(join);
        Reg s = b.add(r, other);
        b.ret({s});
        Function f = b.finish();
        splitCriticalEdges(f);

        const InstrId use = f.block(join).instrs()[0];
        ThreadPartition p;
        p.num_threads = 2;
        p.assign.assign(f.numInstrs(), 1);
        p.assign[f.block(entry).instrs()[0]] = 0; // r = 1
        Cell cell = makeCell(std::move(f), std::move(p));
        ASSERT_TRUE(cell.verify().ok()) << cell.verify().render();
        ControlDependence cd(*cell.f,
                             DominatorTree::postDominators(*cell.f));

        CommPlan plan = cell.plan;
        ASSERT_EQ(plan.placements.size(), 1u);
        ASSERT_EQ(plan.placements[0].reg, r);
        plan.placements[0].points = {{right, 0}};

        auto [validator, verifier] = uncoveredBoth(
            *cell.f, *cell.pdg, cell.part, cd, plan, cell.prog, nullptr);
        std::set<UncoveredSite> expect;
        if (!kill)
            expect.insert({1, join, use});
        EXPECT_EQ(validator, expect) << "kill=" << kill;
        EXPECT_EQ(verifier, expect) << "kill=" << kill;
    }
}

TEST(MtVerifyDiag, RenderAndDedupe)
{
    MtvDiag d{.code = MtvCode::DepUncovered,
              .thread = 1,
              .block = 3,
              .pos = 2,
              .instr = 17,
              .queue = 5,
              .message = "msg"};
    EXPECT_EQ(renderDiag(d), "[error dep-uncovered] T1 B3:2 i17 q5: msg");

    MtvDiag w{.code = MtvCode::DupFlagWrong,
              .severity = MtvSeverity::Warning,
              .message = "w"};
    EXPECT_EQ(renderDiag(w), "[warning dup-flag-wrong]: w");

    std::vector<MtvDiag> diags{d, w, d, d, w};
    dedupeDiags(diags);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0], d);
    EXPECT_EQ(diags[1], w);
    EXPECT_EQ(countErrors(diags), 1);
}

} // namespace
} // namespace gmt
