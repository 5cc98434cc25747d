#include "mtverify/uncovered_path.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gmt
{

UncoveredPathSearch::UncoveredPathSearch(const Function &f,
                                         const ThreadPartition &partition,
                                         const CommPlan &plan)
    : f_(f), partition_(partition)
{
    const int nb = f.numBlocks();
    block_start_.assign(nb + 1, 0);
    point_of_.assign(f.numInstrs(), -1);
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        block_start_[b + 1] =
            block_start_[b] + static_cast<int>(instrs.size());
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            point_of_[instrs[pos]] =
                block_start_[b] + static_cast<int>(pos);
            block_of_.push_back(b);
        }
    }
    barrier_.assign(block_start_[nb], 0);
    seen_.assign(block_start_[nb], 0);

    for (const CommPlacement &pl : plan.placements) {
        const bool mem = pl.kind == CommKind::MemorySync;
        const Key key{pl.src_thread, pl.dst_thread, mem,
                      mem ? kNoReg : pl.reg};
        for (const ProgramPoint &p : pl.points) {
            if (p.block >= 0 && p.block < nb && p.pos >= 0 &&
                p.pos < static_cast<int>(f.block(p.block).size()))
                points_by_key_.push_back(
                    {key, block_start_[p.block] + p.pos});
        }
    }
    std::sort(points_by_key_.begin(), points_by_key_.end());
}

bool
UncoveredPathSearch::escapes(const PdgArc &arc)
{
    GMT_ASSERT(arc.kind != DepKind::Control);
    if (++epoch_ == 0) {
        std::fill(barrier_.begin(), barrier_.end(), 0);
        std::fill(seen_.begin(), seen_.end(), 0);
        epoch_ = 1;
    }

    // Barrier: the points of every matching placement.
    const bool mem = arc.kind == DepKind::Memory;
    const Key key{partition_.threadOf(arc.src),
                  partition_.threadOf(arc.dst), mem,
                  mem ? kNoReg : arc.reg};
    auto it = std::lower_bound(
        points_by_key_.begin(), points_by_key_.end(), key,
        [](const auto &e, const Key &k) { return e.first < k; });
    for (; it != points_by_key_.end() && it->first == key; ++it)
        barrier_[it->second] = epoch_;

    // DFS from just after the source. Communication at a barrier
    // point intercepts the value (tested before the goal), and a
    // redefinition of the register ends the path: the old value no
    // longer needs to flow further.
    const Reg kill = mem ? kNoReg : arc.reg;
    const int goal = point_of_[arc.dst];
    const int start = point_of_[arc.src] + 1;
    GMT_ASSERT(start < block_start_[block_of_[start - 1] + 1],
               "dependence source ends its block");
    work_.assign(1, start);
    while (!work_.empty()) {
        const int p = work_.back();
        work_.pop_back();
        if (barrier_[p] == epoch_)
            continue;
        if (p == goal)
            return true;
        if (seen_[p] == epoch_)
            continue;
        seen_[p] = epoch_;
        const BlockId b = block_of_[p];
        const InstrId here = f_.block(b).instrs()[p - block_start_[b]];
        if (kill != kNoReg && f_.defOf(here) == kill)
            continue;
        if (p + 1 < block_start_[b + 1]) {
            work_.push_back(p + 1);
        } else {
            for (BlockId s : f_.block(b).succs())
                work_.push_back(block_start_[s]);
        }
    }
    return false;
}

} // namespace gmt
