#ifndef GMT_PARTITION_DSWP_HPP
#define GMT_PARTITION_DSWP_HPP

/**
 * @file
 * Decoupled Software Pipelining partitioner [16].
 *
 * DSWP groups the PDG's strongly connected components — which must
 * stay on one thread, since a split SCC would create a cross-thread
 * dependence cycle — and assigns them to a pipeline of threads such
 * that every dependence flows from an earlier to a later stage. Stage
 * loads are balanced on profile-weighted instruction cost.
 */

#include "analysis/edge_profile.hpp"
#include "obs/provenance.hpp"
#include "partition/partition.hpp"

namespace gmt
{

/**
 * Partition @p pdg into a pipeline. Guaranteed to satisfy the
 * pipeline invariant (validatePartition with require_pipeline).
 * Stall feedback in @p opts pulls stage boundaries toward an even
 * split of *observed* cost rather than raw profile weight.
 *
 * When @p prov is non-null, records per-component greedy-fill
 * decisions (unit ids = SCC component ids) into it.
 */
ThreadPartition dswpPartition(const Pdg &pdg, const EdgeProfile &profile,
                              const PartitionOptions &opts = {},
                              PartitionProvenance *prov = nullptr);

} // namespace gmt

#endif // GMT_PARTITION_DSWP_HPP
