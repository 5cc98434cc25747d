#include "mtcg/queue_alloc.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/error.hpp"

namespace gmt
{

QueueAllocation
allocateQueues(const CommPlan &plan, int max_queues,
               QueueProvenance *prov)
{
    QueueAllocation alloc;
    alloc.queue_of.assign(plan.placements.size(), -1);
    if (prov)
        prov->max_queues = max_queues;

    // Group placement indices by ordered thread pair.
    std::map<std::pair<int, int>, std::vector<int>> groups;
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        groups[{pl.src_thread, pl.dst_thread}].push_back(
            static_cast<int>(pi));
    }
    if (groups.empty())
        return alloc;

    int num_pairs = static_cast<int>(groups.size());
    if (max_queues < num_pairs)
        fatal("queue allocation needs at least ", num_pairs,
              " queues (one per communicating thread pair), got ",
              max_queues);

    // Proportional shares, at least one queue per pair.
    int total_placements = static_cast<int>(plan.placements.size());
    int next_queue = 0;
    for (auto &[pair, members] : groups) {
        int share = static_cast<int>(
            static_cast<long long>(members.size()) *
            (max_queues - num_pairs) / std::max(total_placements, 1));
        int queues = 1 + share;
        queues = std::min<int>(queues,
                               static_cast<int>(members.size()));
        // Round-robin members over this pair's queue range; both
        // threads derive the same mapping from the plan order, so
        // produce/consume streams stay aligned.
        for (size_t k = 0; k < members.size(); ++k) {
            alloc.queue_of[members[k]] =
                next_queue + static_cast<int>(k % queues);
        }
        if (prov) {
            for (int q = 0; q < queues; ++q) {
                QueueDecision d;
                d.queue = next_queue + q;
                d.src_thread = pair.first;
                d.dst_thread = pair.second;
                d.rule = queues == static_cast<int>(members.size())
                             ? "identity"
                             : "pair-share";
                d.pair_placements = static_cast<int>(members.size());
                d.pair_queues = queues;
                for (size_t k = 0; k < members.size(); ++k)
                    if (static_cast<int>(k % queues) == q)
                        d.placements.push_back(members[k]);
                prov->queues.push_back(std::move(d));
            }
        }
        next_queue += queues;
    }
    alloc.num_queues = next_queue;
    if (prov)
        prov->num_queues = alloc.num_queues;
    GMT_ASSERT(alloc.num_queues <= max_queues);
    return alloc;
}

std::vector<int>
assignQueues(const CommPlan &plan, int max_queues, MtProgram &prog,
             QueueProvenance &prov)
{
    const int n = static_cast<int>(plan.placements.size());
    GMT_ASSERT(prog.num_queues == n,
               "assignQueues expects one queue per placement");
    prov = QueueProvenance{};
    if (max_queues > 0) {
        QueueAllocation alloc = allocateQueues(plan, max_queues, &prov);
        for (Function &tf : prog.threads) {
            for (InstrId i = 0; i < tf.numInstrs(); ++i) {
                Instr &in = tf.instr(i);
                if (isCommunication(in.op))
                    in.queue = alloc.queue_of[in.queue];
            }
        }
        prog.num_queues = alloc.num_queues;
        return alloc.queue_of;
    }
    // Paper footnote 1: one queue per placement.
    std::vector<int> queue_of(static_cast<size_t>(n));
    prov.num_queues = n;
    for (int i = 0; i < n; ++i) {
        const CommPlacement &pl = plan.placements[static_cast<size_t>(i)];
        queue_of[static_cast<size_t>(i)] = i;
        QueueDecision d;
        d.queue = i;
        d.src_thread = pl.src_thread;
        d.dst_thread = pl.dst_thread;
        d.rule = "identity";
        d.pair_placements = 1;
        d.pair_queues = 1;
        d.placements.push_back(i);
        prov.queues.push_back(std::move(d));
    }
    return queue_of;
}

} // namespace gmt
