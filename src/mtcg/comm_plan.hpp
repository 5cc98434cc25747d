#ifndef GMT_MTCG_COMM_PLAN_HPP
#define GMT_MTCG_COMM_PLAN_HPP

/**
 * @file
 * Communication plans and relevant-branch sets.
 *
 * A CommPlan says, for every inter-thread dependence, *where* in the
 * original CFG its produce/consume pair executes. MTCG's Algorithm 1
 * strategy ("communicate each dependence at the point of its source
 * instruction") is defaultMtcgPlan(); COCO emits the same structure
 * with min-cut-chosen points, and the single emission engine in
 * mtcg.hpp consumes either — matching the paper's note that COCO's
 * annotations "can be directly used to place communications in a
 * slightly modified version of MTCG".
 */

#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/edge_profile.hpp"
#include "ir/function.hpp"
#include "obs/provenance.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

/** What a placement transports. */
enum class CommKind {
    RegisterData, ///< produce/consume of a register value
    MemorySync,   ///< produce.sync/consume.sync ordering token
};

/**
 * One produce/consume pair (one queue): the source thread produces at
 * every listed point, the target thread consumes at the same points.
 * Both threads visit the points in the same order along any execution
 * path, which keeps every queue balanced and deadlock-free.
 */
struct CommPlacement
{
    CommKind kind = CommKind::RegisterData;
    Reg reg = kNoReg; ///< register carried (RegisterData only)
    int src_thread = 0;
    int dst_thread = 0;
    std::vector<ProgramPoint> points;

    bool operator==(const CommPlacement &) const = default;
};

/** A full communication plan for one partition. */
struct CommPlan
{
    std::vector<CommPlacement> placements;

    /** One queue per placement. */
    int numQueues() const { return static_cast<int>(placements.size()); }

    bool operator==(const CommPlan &) const = default;
};

/**
 * Per-thread relevant-branch and needed-block sets (paper
 * Definitions 1 and 2, generalized over an arbitrary CommPlan).
 */
class RelevantSets
{
  public:
    /**
     * Fixpoint per thread T over "needed blocks":
     *  - blocks holding instructions assigned to T,
     *  - blocks holding any point of a placement with src or dst T,
     *  - blocks of branches already relevant to T;
     * a branch block becomes relevant when it controls a needed block
     * (or is assigned to T).
     */
    RelevantSets(const Function &f, const ControlDependence &cd,
                 const ThreadPartition &partition, const CommPlan &plan);

    int numThreads() const { return static_cast<int>(branches_.size()); }

    /** Is @p b's terminating branch relevant to thread @p t? */
    bool
    isRelevantBranch(int t, BlockId b) const
    {
        return branches_[t].test(b);
    }

    /** Blocks thread @p t's generated CFG must contain. */
    const BitVector &neededBlocks(int t) const { return needed_[t]; }

    /**
     * Paper Definition 2: a point is relevant to @p t iff every branch
     * its block is control dependent on is relevant to @p t.
     */
    bool isRelevantPoint(int t, BlockId b,
                         const ControlDependence &cd) const;

  private:
    std::vector<BitVector> branches_; // [thread] -> branch blocks
    std::vector<BitVector> needed_;   // [thread] -> needed blocks
};

/**
 * The original MTCG placement (Algorithm 1):
 *  - each cross-thread register dependence communicated right after
 *    its defining instruction;
 *  - each cross-thread memory dependence synchronized right after its
 *    source (shared per (source instruction, target thread));
 *  - each branch relevant to a thread that does not own it gets its
 *    operand produced by the owning thread right before the branch.
 */
CommPlan defaultMtcgPlan(const Function &f, const Pdg &pdg,
                         const ThreadPartition &partition,
                         const ControlDependence &cd);

/**
 * Decision record of a defaultMtcgPlan() result: rule "mtcg-default"
 * for every placement, each point costed at its @p profile weight.
 * Algorithm 1 searches nothing, so the plan alone determines it.
 */
PlacementProvenance defaultPlanProvenance(const CommPlan &plan,
                                          const EdgeProfile &profile);

} // namespace gmt

#endif // GMT_MTCG_COMM_PLAN_HPP
