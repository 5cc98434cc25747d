#ifndef GMT_COCO_SAFETY_HPP
#define GMT_COCO_SAFETY_HPP

/**
 * @file
 * COCO's thread-aware safety analysis (paper equations 1 and 2).
 *
 * A register r is *safe* to communicate from thread T_s at a program
 * point iff T_s is guaranteed to hold the latest value of r there
 * (Property 3): right after T_s defines or uses r, and until any
 * thread redefines it. Communicating at an unsafe point would
 * overwrite the target's copy with a stale value.
 *
 *   SAFE_out(n) = DEF_Ts(n) u USE_Ts(n) u (SAFE_in(n) - DEF(n))
 *   SAFE_in(n)  = intersection over predecessors of SAFE_out
 *
 * The analysis is forward/must. At the region entry every register is
 * safe for every thread: live-ins are broadcast at thread spawn, so
 * all threads start with identical register files.
 */

#include <vector>

#include "ir/function.hpp"
#include "partition/partition.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

/** Per-point safe-register sets for one source thread. */
class SafetyAnalysis
{
  public:
    SafetyAnalysis(const Function &f, const ThreadPartition &partition,
                   int src_thread);

    /** Registers safe to communicate from the thread at block entry. */
    const BitVector &safeIn(BlockId b) const { return safe_in_[b]; }

    /** Safe set at an arbitrary point (forward refinement). */
    BitVector safeAt(const ProgramPoint &p) const;

    bool isSafeAt(Reg r, const ProgramPoint &p) const;

    /** Equation (1) for register @p r alone across instruction @p i:
     *  @p safe before it, the result after. Any def of r resets the
     *  bit; the source thread's own defs and uses of r set it. */
    bool
    safeAfter(Reg r, bool safe, InstrId i) const
    {
        const bool mine = partition_.threadOf(i) == src_thread_;
        if (func_.defOf(i) == r)
            safe = mine;
        if (mine && !safe) {
            for (Reg use : func_.usesOf(i))
                safe = safe || use == r;
        }
        return safe;
    }

  private:
    /** Apply equation (1) for one instruction. */
    void transfer(BitVector &safe, InstrId i) const;

    const Function &func_;
    const ThreadPartition &partition_;
    int src_thread_;
    std::vector<BitVector> safe_in_;
};

} // namespace gmt

#endif // GMT_COCO_SAFETY_HPP
