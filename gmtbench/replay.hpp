#ifndef GMTBENCH_REPLAY_HPP
#define GMTBENCH_REPLAY_HPP

/**
 * @file
 * The traced replay: one batch of a workload re-run by calling each
 * module's public functions in pipeline order, with a span around
 * every call. Stage results are shared across cells exactly as the
 * experiment runner's artifact cache shares them (ST reference, ST
 * simulation, profile and PDG once per kernel, partition once per
 * scheduler, program once per placement), so the replay does the same
 * work as the untimed batch; compile cells share nothing, like
 * gmt-lint's cache-less runs.
 */

#include <cstdint>
#include <vector>

#include "cells.hpp"
#include "spans.hpp"

namespace gmtbench
{

/** Work counts gathered at the layer boundaries of one batch. */
struct LayerCounts
{
    uint64_t ir_instrs = 0;       ///< instrs of edge-split functions
    uint64_t st_dyn_instrs = 0;   ///< interpret()
    uint64_t mt_dyn_instrs = 0;   ///< interpretMt()
    uint64_t mt_comm_instrs = 0;  ///< of which produce/consume (+sync)
    uint64_t mem_fills = 0;       ///< input images built outside autotune
    uint64_t sim_runs = 0;
    uint64_t sim_cycles = 0;
    uint64_t sim_swept = 0;       ///< cycles the engine iterated
    uint64_t sim_skipped = 0;     ///< cycles the engine skipped
    uint64_t at_rounds = 0;
    uint64_t at_candidates = 0;   ///< moves considered
    uint64_t at_accepted = 0;
    uint64_t pdg_arcs = 0;
    uint64_t pdg_instrs = 0;      ///< instrs of functions given a PDG
    uint64_t cross_arcs = 0;
    uint64_t coco_iterations = 0;
    uint64_t coco_cut_solves = 0; ///< warm starts + cold rebuilds
    uint64_t mtcg_emitted_instrs = 0;
    uint64_t mtcg_queues = 0;
    uint64_t mtverify_hb_pairs = 0;
    uint64_t mtverify_instrs = 0; ///< instrs of verified programs

    bool operator==(const LayerCounts &) const = default;
};

struct ReplayOutput
{
    /** fig8/autotune: one result per cell, in batch order. */
    std::vector<gmt::PipelineResult> results;

    /** compile: one result per cell, in batch order. */
    std::vector<CompileResult> compile;

    LayerCounts counts;
};

/** Replay one batch of @p in, recording spans into @p rec. */
ReplayOutput replayBatch(const Inputs &in, SpanRecorder &rec);

} // namespace gmtbench

#endif // GMTBENCH_REPLAY_HPP
