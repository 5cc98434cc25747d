#ifndef GMT_COCO_COCO_HPP
#define GMT_COCO_COCO_HPP

/**
 * @file
 * The COCO optimizer (paper Algorithm 2): for every dependent thread
 * pair, place each register's communication by a min-cut of its flow
 * graph and all memory synchronization by a multi-pair min-cut,
 * growing the target thread's relevant-branch set as placements land
 * on new conditional points, iterating until the placement set
 * converges (guaranteed: relevant sets only grow).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/edge_profile.hpp"
#include "graph/max_flow.hpp"
#include "mtcg/comm_plan.hpp"
#include "obs/provenance.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

class ThreadPool;
class TraceCollector;

/** COCO's two ablation switches (ablate_penalties, ablate_multicut). */
struct CocoOptions
{
    /** §3.1.2 control-flow penalties on arc costs. */
    bool control_flow_penalties = true;

    /**
     * Use the paper's sequential per-pair heuristic for the (NP-hard)
     * multi-pair memory cut; false = single super-pair cut baseline.
     */
    bool multi_pair_memory = true;
};

/** Execution hooks for the optimizer, which is one serial walk. */
struct CocoExec
{
    /** Inert: no code reads it. Kept only because gmtbench/replay.cpp
     *  sets it, until the ROADMAP's benchmark revision deletes it. */
    ThreadPool *pool = nullptr;

    /** Inert, kept for gmtbench/replay.cpp like `pool`. */
    int jobs = 1;

    /** Optional Chrome-trace collector: one span per cut the walk
     *  builds and solves (none for a cut-cache answer). */
    TraceCollector *trace = nullptr;
};

/** Result of the optimizer. */
struct CocoResult
{
    CommPlan plan;

    /** repeat-until iterations executed. */
    int iterations = 0;

    /** Total min-cut cost over all register cuts (profile units). */
    Capacity register_cut_cost = 0;

    /** Total multi-cut cost over all memory cuts. */
    Capacity memory_cut_cost = 0;

    /** Cut problems enumerated over all repeat-until iterations. */
    uint64_t problems = 0;

    /** Cut problems the apply walk answered from the version-tagged
     *  cut cache. */
    uint64_t warm_starts = 0;

    /** Cut problems the apply walk built and solved. warm_starts +
     *  cold_rebuilds = problems. */
    uint64_t cold_rebuilds = 0;

    /**
     * Why each placement of `plan` is where it is: rule, Algorithm-2
     * iteration, cut problem id and arc-cost breakdown per placement,
     * plus the elided decisions. Built on every call by the apply
     * walk.
     */
    PlacementProvenance provenance;
};

/**
 * Run COCO. A register dependence whose min cut is empty falls back to
 * the default MTCG placement (after the source instruction).
 */
CocoResult cocoOptimize(const Function &f, const Pdg &pdg,
                        const ThreadPartition &partition,
                        const ControlDependence &cd,
                        const EdgeProfile &profile,
                        const CocoOptions &opts = {},
                        const CocoExec &exec = {});

/** A plan as the placement step makes it. */
struct Placement
{
    CommPlan plan;
    int coco_iterations = 0;           ///< 0 for the default plan
    PlacementProvenance prov;          ///< COCO's or "mtcg-default"
    std::vector<std::string> problems; ///< validatePlan's (empty = ok)

    /** COCO's cut-cache counts (CocoResult); 0 for the default plan. */
    uint64_t warm_starts = 0;
    uint64_t cold_rebuilds = 0;
};

/**
 * The placement step of the pipeline and of every autotune candidate:
 * COCO under @p coco, or Algorithm 1's default plan when @p coco is
 * null, then validatePlan; the caller decides what a problem means.
 */
Placement placeCommunication(const Function &f, const Pdg &pdg,
                             const ThreadPartition &partition,
                             const ControlDependence &cd,
                             const EdgeProfile &profile,
                             const CocoOptions *coco,
                             const CocoExec &exec = {});

} // namespace gmt

#endif // GMT_COCO_COCO_HPP
