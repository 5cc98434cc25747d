#include "mtverify/mtverify.hpp"

#include <map>
#include <sstream>

#include "ir/verifier.hpp"
#include "mtverify/deadlock.hpp"
#include "mtverify/hb.hpp"
#include "mtverify/queue_balance.hpp"
#include "mtverify/uncovered_path.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/**
 * Function::positionOf of every instruction, tabulated once per
 * function (positionOf scans the block). An instruction its block does
 * not list falls back to positionOf, which reports it.
 */
class PositionTable
{
  public:
    explicit PositionTable(const Function &f)
        : f_(&f), pos_(f.numInstrs(), -1)
    {
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            const auto &instrs = f.block(b).instrs();
            for (int k = static_cast<int>(instrs.size()) - 1; k >= 0;
                 --k) {
                const InstrId i = instrs[k];
                if (i >= 0 && i < f.numInstrs() && f.instr(i).block == b)
                    pos_[i] = k; // descending: the first listing wins
            }
        }
    }

    int
    operator()(InstrId i) const
    {
        return pos_[i] >= 0 ? pos_[i] : f_->positionOf(i);
    }

  private:
    const Function *f_;
    std::vector<int> pos_;
};

/** One communication op the plan expects a thread to emit in the
 *  image of an original block, in (point, plan) order. */
struct ExpectedComm
{
    Opcode op = Opcode::Produce;
    Reg reg = kNoReg; ///< kNoReg for sync tokens
    QueueId queue = kNoQueue;
    int pos = 0; ///< original-block position of the point
    int placement = -1;
};

MtvCode
missingCodeFor(Opcode op)
{
    switch (op) {
      case Opcode::Produce:
        return MtvCode::MissingProduce;
      case Opcode::Consume:
        return MtvCode::MissingConsume;
      default:
        return MtvCode::MissingSyncToken;
    }
}

bool
exactMatch(const Instr &in, const ExpectedComm &e)
{
    if (in.op != e.op || in.queue != e.queue)
        return false;
    switch (e.op) {
      case Opcode::Produce:
        return in.src1 == e.reg;
      case Opcode::Consume:
        return in.dst == e.reg;
      default:
        return true; // sync tokens carry no register
    }
}

/** Per-thread, per-original-block expected comm sequences. */
std::vector<std::vector<std::vector<ExpectedComm>>>
expectedCommByBlock(const MtVerifyInput &in)
{
    const CommPlan &plan = *in.plan;
    int nt = in.partition->num_threads;
    std::vector<std::vector<std::vector<ExpectedComm>>> exp(
        nt, std::vector<std::vector<ExpectedComm>>(
                in.orig->numBlocks()));

    // (point -> placement indices) sorted by point, plan order within
    // a point — exactly MTCG's emission order.
    std::map<ProgramPoint, std::vector<int>> point_ops;
    for (int pi = 0; pi < static_cast<int>(plan.placements.size());
         ++pi)
        for (const auto &p : plan.placements[pi].points)
            point_ops[p].push_back(pi);

    for (const auto &[point, ops] : point_ops) {
        if (point.block < 0 || point.block >= in.orig->numBlocks())
            continue; // validatePlan's problem, not emission's
        for (int pi : ops) {
            const CommPlacement &pl = plan.placements[pi];
            QueueId q = in.queue_of ? (*in.queue_of)[pi]
                                    : static_cast<QueueId>(pi);
            bool sync = pl.kind == CommKind::MemorySync;
            Reg reg = sync ? kNoReg : pl.reg;
            exp[pl.src_thread][point.block].push_back(
                {sync ? Opcode::ProduceSync : Opcode::Produce, reg, q,
                 point.pos, pi});
            exp[pl.dst_thread][point.block].push_back(
                {sync ? Opcode::ConsumeSync : Opcode::Consume, reg, q,
                 point.pos, pi});
        }
    }
    return exp;
}

/**
 * Walk one emitted block against the plan's expected comm sequence.
 * Non-communication copies advance an "original position" cursor that
 * flushes expected entries whose point has been passed.
 */
void
walkBlock(const MtVerifyInput &in, const PositionTable &orig_pos, int t,
          const ThreadCodeMap &map, BlockId ob,
          const std::vector<ExpectedComm> &expected,
          std::vector<MtvDiag> &diags)
{
    const Function &emitted = in.prog->threads[t];
    BlockId eb = map.emitted_block[ob];

    auto reportMissing = [&](const ExpectedComm &e) {
        std::ostringstream msg;
        msg << "plan placement " << e.placement << " expects "
            << opcodeName(e.op) << " on q" << e.queue;
        if (e.reg != kNoReg)
            msg << " of r" << e.reg;
        msg << " at " << in.orig->block(ob).label() << ":" << e.pos
            << "; not emitted";
        diags.push_back({.code = missingCodeFor(e.op),
                         .thread = t,
                         .block = ob,
                         .pos = e.pos,
                         .queue = e.queue,
                         .message = msg.str()});
    };

    size_t xi = 0;
    if (eb == kNoBlock) {
        // Thread never emitted this block; every expected op is gone.
        for (const auto &e : expected)
            reportMissing(e);
        return;
    }

    constexpr size_t kLookahead = 8;
    for (InstrId ei : emitted.block(eb).instrs()) {
        const Instr &ins = emitted.instr(ei);
        if (!ins.isCommunication()) {
            if (ins.origin == kNoInstr)
                continue; // orphan; reported elsewhere
            // Passing the copy of original position p means every
            // point at positions <= p should already have fired.
            int opos = orig_pos(ins.origin);
            while (xi < expected.size() && expected[xi].pos <= opos)
                reportMissing(expected[xi++]);
            continue;
        }

        if (xi >= expected.size()) {
            diags.push_back(
                {.code = MtvCode::ExtraComm,
                 .thread = t,
                 .block = ob,
                 .queue = ins.queue,
                 .message = std::string(opcodeName(ins.op)) +
                            " not justified by any plan point"});
            continue;
        }

        if (exactMatch(ins, expected[xi])) {
            ++xi;
            continue;
        }

        // Resynchronize: if a later expected entry matches exactly,
        // the ones skipped over were simply not emitted.
        size_t limit = std::min(expected.size(), xi + 1 + kLookahead);
        size_t found = 0;
        for (size_t j = xi + 1; j < limit; ++j) {
            if (exactMatch(ins, expected[j])) {
                found = j;
                break;
            }
        }
        if (found) {
            for (size_t j = xi; j < found; ++j)
                reportMissing(expected[j]);
            xi = found + 1;
            continue;
        }

        // No resync: diagnose the disagreement with expected[xi].
        const ExpectedComm &e = expected[xi];
        bool same_dir =
            (ins.op == Opcode::Produce ||
             ins.op == Opcode::ProduceSync) ==
            (e.op == Opcode::Produce || e.op == Opcode::ProduceSync);
        Reg in_reg = ins.op == Opcode::Produce ? ins.src1
                     : ins.op == Opcode::Consume ? ins.dst
                                                 : kNoReg;
        std::ostringstream msg;
        if (ins.op == e.op && in_reg == e.reg &&
            ins.queue != e.queue) {
            msg << opcodeName(ins.op) << " carries q" << ins.queue
                << " where the plan assigns q" << e.queue;
            diags.push_back({.code = MtvCode::QueueMismatch,
                             .thread = t,
                             .block = ob,
                             .pos = e.pos,
                             .queue = ins.queue,
                             .message = msg.str()});
            ++xi;
        } else if (ins.op == e.op && ins.queue == e.queue &&
                   in_reg != e.reg) {
            msg << opcodeName(ins.op) << " carries r" << in_reg
                << " where the plan expects r" << e.reg;
            diags.push_back({.code = MtvCode::RegMismatch,
                             .thread = t,
                             .block = ob,
                             .pos = e.pos,
                             .queue = e.queue,
                             .message = msg.str()});
            ++xi;
        } else if (same_dir && ins.op != e.op &&
                   ins.queue == e.queue) {
            msg << opcodeName(ins.op) << " emitted where the plan "
                << "expects " << opcodeName(e.op);
            diags.push_back({.code = MtvCode::CommKindMismatch,
                             .thread = t,
                             .block = ob,
                             .pos = e.pos,
                             .queue = e.queue,
                             .message = msg.str()});
            ++xi;
        } else {
            msg << opcodeName(ins.op) << " on q" << ins.queue
                << " not justified by any plan point";
            diags.push_back({.code = MtvCode::ExtraComm,
                             .thread = t,
                             .block = ob,
                             .queue = ins.queue,
                             .message = msg.str()});
        }
    }
    while (xi < expected.size())
        reportMissing(expected[xi++]);
}

/** Copies of original instructions: presence, uniqueness, field
 *  fidelity, block placement, duplicated-flag hygiene, interfaces. */
void
checkCopies(const MtVerifyInput &in,
            const std::vector<ThreadCodeMap> &maps,
            std::vector<MtvDiag> &diags)
{
    const Function &orig = *in.orig;
    const ThreadPartition &part = *in.partition;
    int nt = part.num_threads;

    for (InstrId oi = 0; oi < orig.numInstrs(); ++oi) {
        const Instr &o = orig.instr(oi);
        int owner = part.threadOf(oi);

        for (int t = 0; t < nt; ++t) {
            const Function &emitted = in.prog->threads[t];
            const auto &copies = maps[t].copies_of[oi];

            if (!o.isTerminator()) {
                if (t == owner) {
                    if (copies.empty()) {
                        diags.push_back(
                            {.code = MtvCode::MissingInstr,
                             .thread = t,
                             .block = o.block,
                             .instr = oi,
                             .message =
                                 "owned instruction has no copy"});
                        continue;
                    }
                    if (copies.size() > 1)
                        diags.push_back(
                            {.code = MtvCode::MangledInstr,
                             .thread = t,
                             .block = o.block,
                             .instr = oi,
                             .message =
                                 "owned instruction copied " +
                                 std::to_string(copies.size()) +
                                 " times"});
                } else if (!copies.empty()) {
                    diags.push_back(
                        {.code = MtvCode::OrphanInstr,
                         .thread = t,
                         .block = o.block,
                         .instr = oi,
                         .message = "non-terminator copied into a "
                                    "thread that does not own it"});
                    continue;
                }
            }

            for (InstrId ci : copies) {
                const Instr &c = emitted.instr(ci);

                // Field fidelity. Terminators may be demoted Br->Jmp;
                // a Br copy must keep its condition register.
                if (!o.isTerminator()) {
                    if (c.op != o.op || c.dst != o.dst ||
                        c.src1 != o.src1 || c.src2 != o.src2 ||
                        c.imm != o.imm || c.alias != o.alias)
                        diags.push_back(
                            {.code = MtvCode::MangledInstr,
                             .thread = t,
                             .block = o.block,
                             .instr = oi,
                             .message =
                                 "copy disagrees with the original's "
                                 "operands"});
                } else if (c.op == Opcode::Br &&
                           c.src1 != o.src1) {
                    diags.push_back(
                        {.code = MtvCode::MangledInstr,
                         .thread = t,
                         .block = o.block,
                         .instr = oi,
                         .message = "branch copy lost its condition "
                                    "register"});
                }

                // Block placement.
                BlockId mapped = maps[t].orig_block[c.block];
                if (mapped != kNoBlock && mapped != o.block)
                    diags.push_back(
                        {.code = MtvCode::InstrWrongBlock,
                         .thread = t,
                         .block = o.block,
                         .instr = oi,
                         .message = "copy emitted into the image of " +
                                    orig.block(mapped).label()});

                // Duplicated-branch labeling (stats hygiene only).
                bool should_dup =
                    c.op == Opcode::Br && part.threadOf(oi) != t;
                if (c.isBranch() && c.duplicated != should_dup)
                    diags.push_back(
                        {.code = MtvCode::DupFlagWrong,
                         .severity = MtvSeverity::Warning,
                         .thread = t,
                         .block = o.block,
                         .instr = oi,
                         .message = should_dup
                                        ? "replicated branch not "
                                          "flagged duplicated"
                                        : "owned branch flagged "
                                          "duplicated"});
            }
        }
    }

    // Emitted instructions must be either comm or valid copies.
    for (int t = 0; t < nt; ++t) {
        const Function &emitted = in.prog->threads[t];
        for (BlockId eb = 0; eb < emitted.numBlocks(); ++eb) {
            for (InstrId ei : emitted.block(eb).instrs()) {
                const Instr &e = emitted.instr(ei);
                if (e.isCommunication())
                    continue;
                if (e.origin < 0 || e.origin >= orig.numInstrs())
                    diags.push_back(
                        {.code = MtvCode::OrphanInstr,
                         .thread = t,
                         .block = maps[t].orig_block[eb],
                         .message = "emitted instruction has no "
                                    "valid origin"});
            }
        }
    }

    // Interfaces: params everywhere, live-outs only at the Ret owner.
    InstrId ret = orig.block(orig.exitBlock()).terminator();
    int ret_owner = part.threadOf(ret);
    for (int t = 0; t < nt; ++t) {
        const Function &emitted = in.prog->threads[t];
        if (emitted.params() != orig.params())
            diags.push_back({.code = MtvCode::InterfaceMismatch,
                             .thread = t,
                             .message = "thread params differ from "
                                        "the original function's"});
        const std::vector<Reg> expect_lo =
            t == ret_owner ? orig.liveOuts() : std::vector<Reg>{};
        if (emitted.liveOuts() != expect_lo)
            diags.push_back(
                {.code = MtvCode::InterfaceMismatch,
                 .thread = t,
                 .message =
                     t == ret_owner
                         ? "Ret-owning thread's live-outs differ "
                           "from the original function's"
                         : "non-Ret thread declares live-outs"});
    }
}

/** Theorem 1 over the PDG arcs. */
void
checkDependences(const MtVerifyInput &in,
                 const std::vector<ThreadCodeMap> &maps,
                 const PositionTable &orig_pos,
                 const std::vector<PositionTable> &thread_pos,
                 std::vector<MtvDiag> &diags)
{
    const Function &orig = *in.orig;
    const ThreadPartition &part = *in.partition;
    UncoveredPathSearch paths(orig, part, *in.plan);

    for (const PdgArc &arc : in.pdg->arcs()) {
        int ts = part.threadOf(arc.src);
        int tt = part.threadOf(arc.dst);

        if (arc.kind == DepKind::Control) {
            // The controlled thread must carry some copy of the
            // branch. (A Jmp copy means MTCG proved control cannot
            // diverge for this thread — the retargets coincide — so
            // that also discharges the dependence.)
            if (maps[tt].copies_of[arc.src].empty())
                diags.push_back(
                    {.code = MtvCode::ControlUncovered,
                     .thread = tt,
                     .block = orig.instr(arc.src).block,
                     .instr = arc.src,
                     .message = "thread depends on this branch but "
                                "has no copy of it"});
            continue;
        }

        if (ts == tt) {
            // Intra-thread: copies in the same block image must keep
            // the original relative order (cross-block order is the
            // CFG's job, which structural checks cover).
            if (orig.instr(arc.src).block != orig.instr(arc.dst).block)
                continue;
            const auto &sc = maps[ts].copies_of[arc.src];
            const auto &dc = maps[ts].copies_of[arc.dst];
            if (sc.empty() || dc.empty())
                continue; // missing copies already reported
            const Function &emitted = in.prog->threads[ts];
            if (emitted.instr(sc[0]).block !=
                emitted.instr(dc[0]).block)
                continue; // wrong block already reported
            int so = orig_pos(arc.src);
            int de = orig_pos(arc.dst);
            int se = thread_pos[ts](sc[0]);
            int dee = thread_pos[ts](dc[0]);
            if ((so < de) != (se < dee))
                diags.push_back(
                    {.code = MtvCode::DepIntraThreadOrder,
                     .thread = ts,
                     .block = orig.instr(arc.src).block,
                     .instr = arc.dst,
                     .message = "copies of i" +
                                std::to_string(arc.src) + " and i" +
                                std::to_string(arc.dst) +
                                " lost their original order"});
            continue;
        }

        // Cross-thread data dependence: some matching placement must
        // cut every path from the source to the destination (the same
        // search as coco/validate.cpp, run here against the plan that
        // actually drove emission).
        if (paths.escapes(arc)) {
            std::ostringstream msg;
            if (arc.kind == DepKind::Register)
                msg << "register r" << arc.reg;
            else
                msg << "memory";
            msg << " dependence i" << arc.src << " -> i" << arc.dst
                << " (T" << ts << " -> T" << tt
                << ") has a path uncovered by any produce/consume";
            diags.push_back({.code = MtvCode::DepUncovered,
                             .thread = tt,
                             .block = orig.instr(arc.dst).block,
                             .instr = arc.dst,
                             .message = msg.str()});
        }
    }
}

} // namespace

std::string
MtVerifyResult::render() const
{
    std::ostringstream os;
    for (size_t i = 0; i < diags.size(); ++i) {
        if (i)
            os << '\n';
        os << renderDiag(diags[i]);
    }
    return os.str();
}

MtVerifyResult
verifyMtProgram(const MtVerifyInput &in)
{
    GMT_ASSERT(in.orig && in.pdg && in.partition && in.plan && in.prog,
               "verifyMtProgram: missing input");
    GMT_ASSERT(!in.queue_of ||
                   in.queue_of->size() == in.plan->placements.size(),
               "verifyMtProgram: queue assignment size mismatch");

    MtVerifyResult res;
    int nt = in.partition->num_threads;
    GMT_ASSERT(static_cast<int>(in.prog->threads.size()) == nt,
               "verifyMtProgram: thread count mismatch");

    // Structural soundness per thread first; the deeper checks assume
    // well-formed CFGs.
    for (int t = 0; t < nt; ++t)
        for (const std::string &p :
             verifyFunction(in.prog->threads[t]))
            res.diags.push_back({.code = MtvCode::Structural,
                                 .thread = t,
                                 .message = p});

    std::vector<ThreadCodeMap> maps;
    maps.reserve(nt);
    for (int t = 0; t < nt; ++t)
        maps.push_back(buildThreadCodeMap(*in.orig,
                                          in.prog->threads[t], t,
                                          res.diags));

    checkCopies(in, maps, res.diags);

    // Theorem 1: plan fidelity + PDG coverage.
    const PositionTable orig_pos(*in.orig);
    std::vector<PositionTable> thread_pos;
    thread_pos.reserve(nt);
    for (int t = 0; t < nt; ++t)
        thread_pos.emplace_back(in.prog->threads[t]);
    auto expected = expectedCommByBlock(in);
    for (int t = 0; t < nt; ++t) {
        if (maps[t].broken)
            continue; // block images unusable; already reported
        for (BlockId ob = 0; ob < in.orig->numBlocks(); ++ob)
            walkBlock(in, orig_pos, t, maps[t], ob, expected[t][ob],
                      res.diags);
    }
    checkDependences(in, maps, orig_pos, thread_pos, res.diags);

    // Theorems 2 and 3, from the emitted code alone.
    checkQueueBalance(*in.orig, *in.prog, maps, res.diags);
    checkDeadlockFreedom(*in.orig, *in.prog, maps, res.diags);

    // Theorem 4: race freedom via happens-before (also from the
    // emitted code; the plan only feeds the redundancy warning).
    if (in.check_hb) {
        HbStats hb = checkHappensBefore(*in.orig, *in.pdg,
                                        *in.partition, *in.plan,
                                        *in.prog, maps, res.diags);
        res.hb_pairs = hb.pairs_checked;
    }

    sortDiags(res.diags);
    dedupeDiags(res.diags);
    return res;
}

} // namespace gmt
