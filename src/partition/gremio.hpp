#ifndef GMT_PARTITION_GREMIO_HPP
#define GMT_PARTITION_GREMIO_HPP

/**
 * @file
 * GREMIO partitioner [15] (Global REsource-constrained Multi-threaded
 * Instruction scheduling Orchestrator).
 *
 * Unlike DSWP, GREMIO permits cyclic inter-thread dependences. It
 * performs list scheduling over the PDG guided by each instruction's
 * estimated ready time: every instruction is placed on the thread
 * where it can start earliest, where a cross-thread operand adds the
 * communication latency, with a load-balance tie-break. Instructions
 * are considered in control-relation order (program order of a
 * reverse-postorder block walk), mirroring the paper's description of
 * scheduling "based on their control relations and an estimate of
 * when instructions will be ready to execute".
 */

#include "analysis/edge_profile.hpp"
#include "obs/provenance.hpp"
#include "partition/partition.hpp"

namespace gmt
{

/**
 * Partition @p pdg by ready-time list scheduling.
 *
 * When @p prov is non-null, records the unit-formation merges and,
 * per list-scheduled unit, every thread's (busy, comm, score)
 * candidate triple with the winner flagged.
 */
ThreadPartition gremioPartition(const Pdg &pdg, const EdgeProfile &profile,
                                const PartitionOptions &opts = {},
                                PartitionProvenance *prov = nullptr);

} // namespace gmt

#endif // GMT_PARTITION_GREMIO_HPP
