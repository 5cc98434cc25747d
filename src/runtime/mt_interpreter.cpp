#include "runtime/mt_interpreter.hpp"

#include "runtime/interpreter.hpp"
#include "sim/decoded_program.hpp"
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

const char *
outputMismatch(const std::vector<int64_t> &live_outs,
               const MemoryImage &mem, bool queues_drained,
               const std::vector<int64_t> &ref_live_outs,
               const MemoryImage &ref_mem)
{
    return live_outs != ref_live_outs ? "live-outs differ"
           : !(mem == ref_mem)        ? "final memory differs"
           : !queues_drained          ? "queues not drained"
                                      : nullptr;
}

namespace
{

/** Execution state of one thread. */
struct ThreadState
{
    const DecodedThread *thread = nullptr;
    const DecodedInstr *code = nullptr; ///< thread->code.data()
    std::vector<int64_t> regs;
    int32_t ip = 0;
    bool done = false;
    bool blocked = false; // blocked on queue since last progress
};

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

    // The simulator's decode: both MT executors run the same streams.
    const DecodedProgram decoded = decodeProgram(prog);
    std::vector<ThreadState> threads(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        const DecodedThread &dt = decoded.threads[t];
        ThreadState &ts = threads[t];
        ts.thread = &dt;
        ts.code = dt.code.data();
        ts.ip = dt.entry;
        ts.regs.assign(dt.num_regs, 0);
        // Live-ins are broadcast: every thread starts from the same
        // initial context, as with real thread-spawn semantics.
        if (args.size() != dt.params.size())
            fatal("interpretMt: thread ", t, " expects ",
                  dt.params.size(), " args, got ", args.size());
        for (size_t i = 0; i < args.size(); ++i)
            ts.regs[dt.params[i]] = args[i];
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
        const DecodedInstr &in = ts.code[ts.ip];

        // A queue transition may unblock peers; recheck lazily.
        auto unblockAll = [&] {
            for (auto &other : threads)
                other.blocked = false;
            blocked_live = 0;
        };
        auto block = [&] {
            ts.blocked = true;
            ++blocked_live;
        };

        int32_t next_ip = ts.ip + 1;
        switch (in.op) {
          case Opcode::Produce:
            if (!queues.produce(in.queue, ts.regs[in.src1])) {
                block();
                continue;
            }
            unblockAll();
            break;
          case Opcode::ProduceSync:
            if (!queues.produce(in.queue, 1)) {
                block();
                continue;
            }
            unblockAll();
            break;
          case Opcode::Consume: {
            int64_t v;
            if (!queues.consume(in.queue, v)) {
                block();
                continue;
            }
            ts.regs[in.dst] = v;
            unblockAll();
            break;
          }
          case Opcode::ConsumeSync: {
            int64_t v;
            if (!queues.consume(in.queue, v)) {
                block();
                continue;
            }
            unblockAll();
            break;
          }
          case Opcode::Load:
            ts.regs[in.dst] = mem.read(ts.regs[in.src1] + in.imm);
            break;
          case Opcode::Store:
            mem.write(ts.regs[in.src1] + in.imm, ts.regs[in.src2]);
            break;
          case Opcode::Br:
            next_ip = (ts.regs[in.src1] != 0) ? in.next : in.br_not;
            break;
          case Opcode::Jmp:
            // Free pseudo-op: real code generation lays blocks out to
            // fall through; counting explicit jumps would charge the
            // block *structure* of a thread as computation.
            ts.ip = in.next;
            continue;
          case Opcode::Ret:
            ts.done = true;
            --live;
            // The thread owning the original Ret declares the
            // live-outs; worker threads declare none.
            for (Reg r : ts.thread->live_outs)
                result.live_outs.push_back(ts.regs[r]);
            break;
          default:
            ts.regs[in.dst] =
                evalAlu(in.op, in.src1 != kNoReg ? ts.regs[in.src1] : 0,
                        in.src2 != kNoReg ? ts.regs[in.src2] : 0, in.imm);
            break;
        }
        result.stats[t].count(in.stat);
        ts.ip = next_ip;
    }

    result.queues_drained = queues.allDrained();
    return result;
}

} // namespace gmt
