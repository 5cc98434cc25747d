#ifndef GMT_MTVERIFY_UNCOVERED_PATH_HPP
#define GMT_MTVERIFY_UNCOVERED_PATH_HPP

/**
 * @file
 * The coverage half of Theorem 1, shared by plan validation
 * (coco/validate.hpp) and MT verification (mtverify.hpp): does some
 * instruction-level CFG path carry a cross-thread dependence from its
 * source to its destination without crossing a point of a placement
 * that communicates it?
 *
 * Program points [0, size) of every block are numbered densely in
 * block order, so a query marks barrier and visited points in two
 * flat arrays stamped with its own epoch, and nothing is cleared or
 * allocated between queries.
 */

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "mtcg/comm_plan.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/** Uncovered-path queries over one (function, partition, plan). */
class UncoveredPathSearch
{
  public:
    UncoveredPathSearch(const Function &f,
                        const ThreadPartition &partition,
                        const CommPlan &plan);

    /**
     * True if some path from just after @p arc's source reaches the
     * point just before its destination without crossing a point of
     * any placement that matches the arc: same source and destination
     * threads, and the arc's register for a register arc or a memory
     * sync for a memory arc. A redefinition of a register arc's
     * register kills the path. @p arc must be a cross-thread register
     * or memory arc. Plan points outside the function's instruction
     * positions match nothing.
     */
    bool escapes(const PdgArc &arc);

  private:
    /** (src thread, dst thread, is memory sync, register or kNoReg). */
    using Key = std::tuple<int, int, bool, Reg>;

    const Function &f_;
    const ThreadPartition &partition_;

    /** First flat point of each block; block_start_[numBlocks()] is
     *  the total point count. */
    std::vector<int> block_start_;
    /** Flat point just before each instruction. */
    std::vector<int> point_of_;
    /** Block of each flat point. */
    std::vector<BlockId> block_of_;

    /** (key, flat point) of every placement point, sorted. */
    std::vector<std::pair<Key, int>> points_by_key_;

    /** Per-point epoch stamps and the DFS stack. */
    std::vector<uint32_t> barrier_, seen_;
    uint32_t epoch_ = 0;
    std::vector<int> work_;
};

} // namespace gmt

#endif // GMT_MTVERIFY_UNCOVERED_PATH_HPP
