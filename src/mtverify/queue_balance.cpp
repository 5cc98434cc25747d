#include "mtverify/queue_balance.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>
#include <tuple>

namespace gmt
{

namespace
{

bool
isProduce(Opcode op)
{
    return op == Opcode::Produce || op == Opcode::ProduceSync;
}

bool
isSync(Opcode op)
{
    return op == Opcode::ProduceSync || op == Opcode::ConsumeSync;
}

} // namespace

std::vector<QueueEndpoints>
queueEndpoints(const MtProgram &prog)
{
    std::vector<QueueEndpoints> ends(prog.num_queues);
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            for (InstrId i : f.block(b).instrs()) {
                const Instr &in = f.instr(i);
                if (!in.isCommunication())
                    continue;
                if (in.queue < 0 || in.queue >= prog.num_queues)
                    continue; // out of range; BadQueueId reports it
                QueueEndpoints &e = ends[in.queue];
                int &slot = isProduce(in.op) ? e.producer : e.consumer;
                if (slot != -1 && slot != t)
                    e.conflict = true;
                slot = t;
            }
        }
    }
    for (auto &e : ends)
        if (e.producer != -1 && e.producer == e.consumer)
            e.conflict = true;
    return ends;
}

void
checkQueueBalance(const Function &orig, const MtProgram &prog,
                  const std::vector<ThreadCodeMap> &maps,
                  std::vector<MtvDiag> &diags)
{
    // --- queue ids in range -----------------------------------------
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            for (InstrId i : f.block(b).instrs()) {
                const Instr &in = f.instr(i);
                if (!in.isCommunication())
                    continue;
                if (in.queue < 0 || in.queue >= prog.num_queues)
                    diags.push_back(
                        {.code = MtvCode::BadQueueId,
                         .thread = t,
                         .block = b,
                         .queue = in.queue,
                         .message =
                             "queue id outside [0, " +
                             std::to_string(prog.num_queues) + ")"});
            }
        }
    }

    // --- endpoint roles ---------------------------------------------
    std::vector<QueueEndpoints> ends = queueEndpoints(prog);
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        if (!ends[q].conflict)
            continue;
        std::ostringstream msg;
        msg << "queue has conflicting endpoints (producer T"
            << ends[q].producer << ", consumer T" << ends[q].consumer
            << ")";
        diags.push_back({.code = MtvCode::QueueEndpointConflict,
                         .queue = q,
                         .message = msg.str()});
    }

    // --- group every comm op by (queue, original block) -------------
    // One pass over each thread's block images, then a stable sort: a
    // group keeps thread order, and emitted order within a thread. On
    // a queue with sound roles every op of its producer thread is a
    // produce and every op of its consumer thread a consume. A missing
    // endpoint thread contributes no ops, which the dataflow then
    // reports as an imbalance at the exit.
    const int nb = orig.numBlocks();
    struct CommOp
    {
        QueueId queue;
        BlockId block; ///< original block
        Opcode op;
    };
    std::vector<CommOp> ops;
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        const auto &images = maps[t].emitted_block;
        for (BlockId ob = 0;
             ob < nb && ob < static_cast<BlockId>(images.size()); ++ob) {
            if (images[ob] == kNoBlock)
                continue;
            for (InstrId i : f.block(images[ob]).instrs()) {
                const Instr &in = f.instr(i);
                if (in.isCommunication() && in.queue >= 0 &&
                    in.queue < prog.num_queues)
                    ops.push_back({in.queue, ob, in.op});
            }
        }
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const CommOp &a, const CommOp &b) {
                         return std::tie(a.queue, a.block) <
                                std::tie(b.queue, b.block);
                     });

    // --- per-queue token-count dataflow on the original CFG ---------
    constexpr int kUnvisited = std::numeric_limits<int>::min();
    constexpr int kTop = std::numeric_limits<int>::min() + 1;

    // Blocks reachable from the entry: where a queue whose every block
    // nets zero tokens has count 0 at block entry. The dataflow could
    // only confirm that, so such queues skip it.
    std::vector<char> reachable(nb, 0);
    {
        std::vector<BlockId> stack{orig.entry()};
        reachable[orig.entry()] = 1;
        while (!stack.empty()) {
            BlockId b = stack.back();
            stack.pop_back();
            for (BlockId s : orig.block(b).succs()) {
                if (!reachable[s]) {
                    reachable[s] = 1;
                    stack.push_back(s);
                }
            }
        }
    }

    std::vector<int> net(nb), in(nb);
    size_t next = 0; // first op of the current queue
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        const size_t first = next;
        while (next < ops.size() && ops[next].queue == q)
            ++next;
        const QueueEndpoints &e = ends[q];
        if (e.conflict)
            continue; // roles are already broken; counts are moot
        if (e.producer == -1 && e.consumer == -1)
            continue; // unused queue (multiplexing slack)

        // Net token delta of the queue's ops in one original block.
        auto groupDelta = [&](size_t lo, size_t &hi) {
            int delta = 0;
            for (hi = lo; hi < next && ops[hi].block == ops[lo].block;
                 ++hi)
                delta += isProduce(ops[hi].op) ? 1 : -1;
            return delta;
        };
        bool balanced = true;
        for (size_t lo = first, hi = first; balanced && lo < next;
             lo = hi)
            balanced = groupDelta(lo, hi) == 0;

        if (!balanced) {
            std::fill(net.begin(), net.end(), 0);
            for (size_t k = first; k < next; ++k)
                net[ops[k].block] += isProduce(ops[k].op) ? 1 : -1;
            std::fill(in.begin(), in.end(), kUnvisited);
            in[orig.entry()] = 0;
            std::deque<BlockId> work{orig.entry()};
            bool reported_merge = false;
            while (!work.empty()) {
                BlockId b = work.front();
                work.pop_front();
                int out = in[b] == kTop ? kTop : in[b] + net[b];
                for (BlockId s : orig.block(b).succs()) {
                    int merged;
                    if (in[s] == kUnvisited || in[s] == out)
                        merged = out;
                    else
                        merged = kTop;
                    if (merged == kTop && !reported_merge) {
                        reported_merge = true;
                        diags.push_back(
                            {.code = MtvCode::QueueImbalance,
                             .block = s,
                             .queue = q,
                             .message =
                                 "in-flight token count diverges "
                                 "between paths reaching " +
                                 orig.block(s).label()});
                    }
                    if (merged != in[s]) {
                        in[s] = merged;
                        work.push_back(s);
                    }
                }
            }

            BlockId ex = orig.exitBlock();
            int at_exit = in[ex] == kTop || in[ex] == kUnvisited
                              ? in[ex]
                              : in[ex] + net[ex];
            if (at_exit != 0 && at_exit != kTop &&
                at_exit != kUnvisited) {
                std::ostringstream msg;
                msg << "queue ends with " << at_exit
                    << " unmatched token(s) at exit (produces vs "
                       "consumes diverge)";
                diags.push_back({.code = MtvCode::QueueImbalance,
                                 .block = ex,
                                 .queue = q,
                                 .message = msg.str()});
            }
        }

        // --- token-kind mirroring per block -------------------------
        // Only where the in-flight count is known to be zero at block
        // entry and the block's counts agree: there the k-th produce
        // feeds exactly the k-th consume, so data/sync kinds must
        // match pairwise. (Guarding on zero avoids cascading noise
        // when an imbalance already offset the pairing.)
        if (e.producer == -1 || e.consumer == -1)
            continue;
        for (size_t lo = first, hi = first; lo < next; lo = hi) {
            const BlockId b = ops[lo].block;
            const bool zero_in = balanced ? reachable[b] : in[b] == 0;
            if (groupDelta(lo, hi) != 0 || !zero_in)
                continue;
            // The group is the producer's ops, then the consumer's (or
            // the reverse): pair the k-th of each.
            size_t pi = lo, ci = lo;
            for (int k = 0;; ++k) {
                while (pi < hi && !isProduce(ops[pi].op))
                    ++pi;
                while (ci < hi && isProduce(ops[ci].op))
                    ++ci;
                if (pi == hi || ci == hi)
                    break;
                Opcode po = ops[pi++].op;
                Opcode co = ops[ci++].op;
                if (isSync(po) == isSync(co))
                    continue;
                std::ostringstream msg;
                msg << "token " << k << " produced as "
                    << opcodeName(po) << " but consumed as "
                    << opcodeName(co);
                diags.push_back({.code = MtvCode::TokenKindMismatch,
                                 .block = b,
                                 .pos = static_cast<int>(k),
                                 .queue = q,
                                 .message = msg.str()});
            }
        }
    }
}

} // namespace gmt
