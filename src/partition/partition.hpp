#ifndef GMT_PARTITION_PARTITION_HPP
#define GMT_PARTITION_PARTITION_HPP

/**
 * @file
 * A thread partition: the assignment of every instruction to a thread.
 * This is the interface between the pluggable partitioners (DSWP,
 * GREMIO, or anything else) and MTCG/COCO — exactly the P input of
 * Algorithms 1 and 2 in the paper.
 */

#include <string>
#include <vector>

#include "analysis/edge_profile.hpp"
#include "obs/provenance.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/** Assignment of instructions to threads. */
struct ThreadPartition
{
    int num_threads = 1;

    /** assign[InstrId] = thread index in [0, num_threads). */
    std::vector<int> assign;

    int
    threadOf(InstrId i) const
    {
        return assign[i];
    }

    /** Instructions assigned to thread @p t, ascending. */
    std::vector<InstrId> membersOf(int t) const;
};

/** Everything-in-thread-0 partition (sanity baseline). */
ThreadPartition singleThreadPartition(const Function &f);

/**
 * Stall-derived boosts folded into the next partitioning round by the
 * feedback-directed autotuner (autotune/autotune.hpp). Both vectors
 * are additive cycle charges: block_boost biases the work accounting
 * (DSWP stage fills, GREMIO busy/work terms) toward stall-charged
 * blocks, arc_boost raises the communication cost GREMIO sees for the
 * PDG arcs a stall-charged queue carries. Either vector may be empty
 * (no boost); when present it must be indexed by BlockId / PDG arc id
 * respectively.
 */
struct PartitionFeedback
{
    std::vector<uint64_t> block_boost;
    std::vector<uint64_t> arc_boost;

    uint64_t
    blockBoost(BlockId b) const
    {
        size_t idx = static_cast<size_t>(b);
        return idx < block_boost.size() ? block_boost[idx] : 0;
    }

    uint64_t
    arcBoost(int arc) const
    {
        size_t idx = static_cast<size_t>(arc);
        return idx < arc_boost.size() ? arc_boost[idx] : 0;
    }
};

/** Partitioner knobs, shared by DSWP and GREMIO. */
struct PartitionOptions
{
    int num_threads = 2;

    /**
     * Optional stall-feedback boosts (autotuner). DSWP weighs
     * stall-charged blocks more in its greedy stage fill; GREMIO adds
     * block_boost to each instruction's work term and arc_boost to the
     * cost of keeping an arc cross-thread. Not owned; may be null.
     */
    const PartitionFeedback *feedback = nullptr;
};

/**
 * The partition step of the pipeline and of autotune re-weights: GREMIO
 * when @p gremio, else DSWP; @p feedback and @p prov may be null.
 */
ThreadPartition runPartitioner(const Pdg &pdg, const EdgeProfile &profile,
                               bool gremio, int num_threads,
                               const PartitionFeedback *feedback,
                               PartitionProvenance *prov);

/**
 * Check a partition: every instruction assigned to a valid thread.
 * With @p require_pipeline, additionally check the DSWP invariant
 * that every PDG arc flows to an equal-or-later thread.
 * @return problems (empty = valid).
 */
std::vector<std::string> validatePartition(const Pdg &pdg,
                                           const ThreadPartition &p,
                                           bool require_pipeline);

/**
 * Count inter-thread PDG arcs under @p p — a quick static measure of
 * how much communication a partition implies.
 */
int countCrossThreadArcs(const Pdg &pdg, const ThreadPartition &p);

/** Does any PDG memory arc cross threads under @p p? */
bool hasCrossThreadMemDep(const Pdg &pdg, const ThreadPartition &p);

} // namespace gmt

#endif // GMT_PARTITION_PARTITION_HPP
