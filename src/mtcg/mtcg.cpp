#include "mtcg/mtcg.hpp"

#include <algorithm>
#include <climits>

#include "analysis/dominators.hpp"
#include "ir/verifier.hpp"
#include "mtcg/queue_alloc.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/** One placement's operation at one program point. */
struct PointOp
{
    ProgramPoint point;
    int placement;

    bool
    operator<(const PointOp &o) const
    {
        return point < o.point ||
               (point == o.point && placement < o.placement);
    }
};

} // namespace

MtProgram
runMtcg(const Function &f, const Pdg &pdg,
        const ThreadPartition &partition, const CommPlan &plan,
        const ControlDependence &cd, const MtcgOptions &opts)
{
    (void)pdg;
    GMT_ASSERT(opts.max_queues == 0,
               "runMtcg emits one queue per placement; assignQueues "
               "multiplexes");
    const int nt = partition.num_threads;
    const int num_queues = plan.numQueues();

    MtProgram prog;
    prog.num_queues = num_queues;
    prog.queue_capacity = opts.queue_capacity;

    RelevantSets relevant(f, cd, partition, plan);
    auto pdom = DominatorTree::postDominators(f);

    // Every plan point, sorted by (block, pos) and then plan order, so
    // each block's operations are one run walked in position order.
    std::vector<PointOp> point_ops;
    for (int pi = 0; pi < static_cast<int>(plan.placements.size());
         ++pi) {
        for (const auto &p : plan.placements[pi].points)
            point_ops.push_back({p, pi});
    }
    std::sort(point_ops.begin(), point_ops.end());

    for (int t = 0; t < nt; ++t) {
        Function out("thread" + std::to_string(t) + "_" + f.name());
        out.ensureRegs(f.numRegs());
        for (Reg r : f.params())
            out.addParam(r);

        const BitVector &needed = relevant.neededBlocks(t);

        // Map original block -> new block.
        std::vector<BlockId> new_block(f.numBlocks(), kNoBlock);
        needed.forEach([&](size_t b) {
            new_block[b] =
                out.addBlock(f.block(static_cast<BlockId>(b)).label());
        });

        // Branch-target fixing ([16] §2.2.3): the first needed block
        // at-or-below `b` in the post-dominator tree.
        auto retarget = [&](BlockId b) {
            while (!needed.test(b)) {
                b = pdom.idom(b);
                GMT_ASSERT(b != kNoBlock, "retarget fell off exit");
            }
            return b;
        };

        bool owns_ret = false;

        needed.forEach([&](size_t ob) {
            BlockId orig = static_cast<BlockId>(ob);
            BlockId nb = new_block[orig];
            const BasicBlock &bb = f.block(orig);
            const int size = static_cast<int>(bb.size());

            // Cursor over this block's plan points; positions only grow.
            auto op = std::lower_bound(point_ops.begin(), point_ops.end(),
                                       PointOp{{orig, INT_MIN}, 0});
            auto emitCommAt = [&](int pos) {
                while (op != point_ops.end() && op->point.block == orig &&
                       op->point.pos < pos)
                    ++op;
                for (; op != point_ops.end() &&
                       op->point == ProgramPoint{orig, pos};
                     ++op) {
                    const int pi = op->placement;
                    const CommPlacement &pl = plan.placements[pi];
                    if (pl.src_thread == t) {
                        if (pl.kind == CommKind::RegisterData) {
                            out.append(nb, {.op = Opcode::Produce,
                                            .src1 = pl.reg,
                                            .queue = pi});
                        } else {
                            out.append(nb, {.op = Opcode::ProduceSync,
                                            .queue = pi});
                        }
                    }
                    if (pl.dst_thread == t) {
                        if (pl.kind == CommKind::RegisterData) {
                            out.append(nb, {.op = Opcode::Consume,
                                            .dst = pl.reg,
                                            .queue = pi});
                        } else {
                            out.append(nb, {.op = Opcode::ConsumeSync,
                                            .queue = pi});
                        }
                    }
                }
            };

            // Body: communication first at each point, then the
            // owned copy of the instruction at that position.
            for (int pos = 0; pos < size - 1; ++pos) {
                emitCommAt(pos);
                InstrId id = bb.instrs()[pos];
                if (partition.threadOf(id) == t) {
                    Instr copy = f.instr(id);
                    copy.origin = id;
                    out.append(nb, copy);
                }
            }
            emitCommAt(size - 1); // points right before the terminator

            // Terminator.
            InstrId term_id = bb.terminator();
            const Instr &term = f.instr(term_id);
            switch (term.op) {
              case Opcode::Ret: {
                Instr copy{.op = Opcode::Ret, .origin = term_id};
                if (partition.threadOf(term_id) == t) {
                    owns_ret = true;
                    out.setLiveOuts(f.liveOuts());
                }
                out.append(nb, copy);
                out.setSuccs(nb, {});
                break;
              }
              case Opcode::Jmp: {
                BlockId target = retarget(bb.succs()[0]);
                out.append(nb, {.op = Opcode::Jmp, .origin = term_id});
                out.setSuccs(nb, {new_block[target]});
                break;
              }
              case Opcode::Br: {
                BlockId t0 = retarget(bb.succs()[0]);
                BlockId t1 = retarget(bb.succs()[1]);
                bool is_relevant = relevant.isRelevantBranch(t, orig);
                if (!is_relevant) {
                    GMT_ASSERT(t0 == t1,
                               "irrelevant branch with diverging "
                               "relevant targets");
                }
                if (t0 == t1) {
                    // Demoted: control cannot diverge for this thread.
                    out.append(nb,
                               {.op = Opcode::Jmp, .origin = term_id});
                    out.setSuccs(nb, {new_block[t0]});
                } else {
                    Instr copy{.op = Opcode::Br, .src1 = term.src1,
                               .origin = term_id};
                    copy.duplicated =
                        (partition.threadOf(term_id) != t);
                    out.append(nb, copy);
                    out.setSuccs(nb, {new_block[t0], new_block[t1]});
                }
                break;
              }
              default:
                panic("block not ending in terminator");
            }
        });

        if (!owns_ret)
            out.setLiveOuts({});
        out.setEntry(new_block[retarget(f.entry())]);

        verifyOrDie(out,
                    {.num_queues = num_queues,
                     .unique_placement_queues = true},
                    "mtcg emission, thread " + std::to_string(t));
        prog.threads.push_back(std::move(out));
    }

    return prog;
}

std::vector<int>
generateMtProgram(const Function &f, const Pdg &pdg,
                  const ThreadPartition &partition, const CommPlan &plan,
                  const ControlDependence &cd, int queue_capacity,
                  int max_queues, MtProgram &prog, QueueProvenance &prov)
{
    prog = runMtcg(f, pdg, partition, plan, cd,
                   {.queue_capacity = queue_capacity});
    return assignQueues(plan, max_queues, prog, prov);
}

} // namespace gmt
