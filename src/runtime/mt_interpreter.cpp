#include "runtime/mt_interpreter.hpp"

#include "runtime/interpreter.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gmt
{

StatClass
statClassOf(Opcode op, bool duplicated)
{
    switch (op) {
      case Opcode::Produce:
        return StatClass::Produce;
      case Opcode::Consume:
        return StatClass::Consume;
      case Opcode::ProduceSync:
        return StatClass::ProduceSync;
      case Opcode::ConsumeSync:
        return StatClass::ConsumeSync;
      case Opcode::Br:
        return duplicated ? StatClass::DuplicatedBranch
                          : StatClass::Computation;
      default:
        return StatClass::Computation;
    }
}

uint64_t
MtRunResult::totalDynamicInstrs() const
{
    uint64_t n = 0;
    for (const auto &s : stats)
        n += s.total();
    return n;
}

uint64_t
MtRunResult::totalCommunication() const
{
    uint64_t n = 0;
    for (const auto &s : stats)
        n += s.communication();
    return n;
}

namespace
{

/**
 * One pre-flattened instruction: the fields the dispatch loop reads,
 * plus control-flow targets resolved to flat indices. Fetch is one
 * load instead of the block -> instr-id -> instr chain.
 */
struct FlatOp
{
    Opcode op;
    bool duplicated;
    Reg dst, src1, src2;
    QueueId queue;
    int64_t imm;
    int32_t next = -1;   ///< Jmp target / Br taken target
    int32_t br_not = -1; ///< Br not-taken target
};

/** Execution state of one thread. */
struct ThreadState
{
    std::vector<FlatOp> code;
    std::vector<int64_t> regs;
    std::vector<Reg> live_outs;
    int32_t ip = 0;
    bool done = false;
    bool blocked = false; // blocked on queue since last progress
};

/** Flatten one thread function (same layout as sim's pre-decode). */
void
flattenThread(const Function &f, ThreadState &ts)
{
    const int nb = f.numBlocks();
    std::vector<int32_t> block_start(nb, -1);
    int32_t n = 0;
    for (BlockId b = 0; b < nb; ++b) {
        block_start[b] = n;
        n += static_cast<int32_t>(f.block(b).size());
    }
    ts.code.reserve(n);
    for (BlockId b = 0; b < nb; ++b) {
        const BasicBlock &bb = f.block(b);
        for (InstrId id : bb.instrs()) {
            const Instr &in = f.instr(id);
            FlatOp d;
            d.op = in.op;
            d.duplicated = in.duplicated;
            d.dst = in.dst;
            d.src1 = in.src1;
            d.src2 = in.src2;
            d.queue = in.queue;
            d.imm = in.imm;
            if (in.op == Opcode::Jmp) {
                d.next = block_start[bb.succs()[0]];
            } else if (in.op == Opcode::Br) {
                d.next = block_start[bb.succs()[0]];
                d.br_not = block_start[bb.succs()[1]];
            }
            ts.code.push_back(d);
        }
    }
    ts.ip = block_start[f.entry()];
    ts.live_outs = f.liveOuts();
}

} // namespace

MtRunResult
interpretMt(const MtProgram &prog, const std::vector<int64_t> &args,
            MemoryImage &mem, SchedulePolicy policy, uint64_t seed,
            uint64_t max_steps)
{
    const int num_threads = static_cast<int>(prog.threads.size());
    GMT_ASSERT(num_threads > 0);

    MtRunResult result;
    result.stats.assign(num_threads, {});

    SyncArray queues(std::max(prog.num_queues, 1), prog.queue_capacity);
    Rng rng(seed ^ 0x5deece66dULL);

    std::vector<ThreadState> threads(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        const Function &f = prog.threads[t];
        flattenThread(f, threads[t]);
        threads[t].regs.assign(f.numRegs(), 0);
        // Live-ins are broadcast: every thread starts from the same
        // initial context, as with real thread-spawn semantics.
        if (args.size() != f.params().size())
            fatal("interpretMt: thread ", t, " expects ",
                  f.params().size(), " args, got ", args.size());
        for (size_t i = 0; i < args.size(); ++i)
            threads[t].regs[f.params()[i]] = args[i];
    }

    int live = num_threads;
    // Live threads currently blocked on a queue; execution is wedged
    // exactly when every live thread is blocked (O(1) check).
    int blocked_live = 0;
    uint64_t steps = 0;

    int rr_next = 0;
    while (live > 0) {
        if (blocked_live == live) {
            result.deadlock = true;
            break;
        }
        // Pick a runnable thread.
        int t = -1;
        if (policy == SchedulePolicy::RoundRobin) {
            int cand = rr_next;
            for (int k = 0; k < num_threads; ++k) {
                if (!threads[cand].done && !threads[cand].blocked) {
                    t = cand;
                    rr_next = cand + 1 == num_threads ? 0 : cand + 1;
                    break;
                }
                cand = cand + 1 == num_threads ? 0 : cand + 1;
            }
        } else {
            // Uniform among runnable threads.
            int runnable = live - blocked_live;
            uint64_t pick = rng.nextBelow(runnable);
            for (int cand = 0; cand < num_threads; ++cand) {
                if (!threads[cand].done && !threads[cand].blocked &&
                    pick-- == 0) {
                    t = cand;
                    break;
                }
            }
        }
        GMT_ASSERT(t >= 0);

        if (++steps > max_steps)
            fatal("interpretMt: step limit exceeded");

        ThreadState &ts = threads[t];
        const FlatOp &in = ts.code[ts.ip];
        ThreadStats &st = result.stats[t];

        auto unblockAll = [&] {
            // A queue transition may unblock peers; recheck lazily.
            for (auto &other : threads)
                other.blocked = false;
            blocked_live = 0;
        };
        auto block = [&] {
            ts.blocked = true;
            ++blocked_live;
        };

        bool advanced = true;
        int32_t next_ip = ts.ip + 1;
        switch (in.op) {
          case Opcode::Produce:
            if (queues.produce(in.queue, ts.regs[in.src1])) {
                ++st.produces;
                unblockAll();
            } else {
                block();
                advanced = false;
            }
            break;
          case Opcode::ProduceSync:
            if (queues.produce(in.queue, 1)) {
                ++st.produce_syncs;
                unblockAll();
            } else {
                block();
                advanced = false;
            }
            break;
          case Opcode::Consume: {
            int64_t v;
            if (queues.consume(in.queue, v)) {
                ts.regs[in.dst] = v;
                ++st.consumes;
                unblockAll();
            } else {
                block();
                advanced = false;
            }
            break;
          }
          case Opcode::ConsumeSync: {
            int64_t v;
            if (queues.consume(in.queue, v)) {
                ++st.consume_syncs;
                unblockAll();
            } else {
                block();
                advanced = false;
            }
            break;
          }
          case Opcode::Load:
            ts.regs[in.dst] = mem.read(ts.regs[in.src1] + in.imm);
            ++st.computation;
            break;
          case Opcode::Store:
            mem.write(ts.regs[in.src1] + in.imm, ts.regs[in.src2]);
            ++st.computation;
            break;
          case Opcode::Br:
            next_ip = (ts.regs[in.src1] != 0) ? in.next : in.br_not;
            if (in.duplicated)
                ++st.duplicated_branches;
            else
                ++st.computation;
            break;
          case Opcode::Jmp:
            // Free pseudo-op: real code generation lays blocks out to
            // fall through; counting explicit jumps would charge the
            // block *structure* of a thread as computation.
            next_ip = in.next;
            break;
          case Opcode::Ret:
            ts.done = true;
            --live;
            ++st.computation;
            // The thread owning the original Ret declares the
            // live-outs; worker threads declare none.
            for (Reg r : ts.live_outs)
                result.live_outs.push_back(ts.regs[r]);
            break;
          default:
            ts.regs[in.dst] =
                evalAlu(in.op, in.src1 != kNoReg ? ts.regs[in.src1] : 0,
                        in.src2 != kNoReg ? ts.regs[in.src2] : 0, in.imm);
            ++st.computation;
            break;
        }

        if (ts.done)
            continue;
        if (!advanced)
            continue;
        ts.ip = next_ip;
    }

    result.queues_drained = queues.allDrained();
    return result;
}

} // namespace gmt
