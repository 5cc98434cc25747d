#ifndef GMT_DRIVER_EXPERIMENT_HPP
#define GMT_DRIVER_EXPERIMENT_HPP

/**
 * @file
 * The parallel experiment runner: executes a batch of independent
 * (workload, options) cells over a fixed-size thread pool, sharing
 * one ArtifactCache so cells that agree on an option prefix (the
 * common case in every figure: COCO on/off pairs per scheduler)
 * compute the shared stages once.
 *
 * Results come back in cell order and are bit-identical to serial
 * execution: every pass is a deterministic function of its cell's
 * options, and cached artifacts are immutable, so scheduling order
 * cannot leak into any PipelineResult (asserted by
 * tests/test_pass_manager.cpp).
 */

#include <string>
#include <vector>

#include "driver/artifact_cache.hpp"
#include "driver/pass_manager.hpp"
#include "driver/pipeline.hpp"
#include "driver/stats.hpp"
#include "workloads/workload.hpp"

namespace gmt
{

/** One cell of an experiment grid. */
struct ExperimentCell
{
    Workload workload;
    PipelineOptions opts;
};

/** Runner configuration. */
struct ExperimentOptions
{
    /** Worker threads; 0 = one per hardware thread, 1 = serial. */
    int jobs = 0;

    /** Share artifacts between cells (off = recompute everything). */
    bool use_cache = true;

    /** Optional per-pass/per-cell JSONL sink (not owned). */
    StatsSink *stats = nullptr;

    /**
     * Optional Chrome-trace collector (not owned). Attached to every
     * cell's context: passes emit spans, and the obs-profile pass is
     * forced on so profiled cells contribute simulator lanes.
     */
    TraceCollector *trace = nullptr;
};

/** Aggregate numbers of one runAll() batch. */
struct ExperimentSummary
{
    int cells = 0;
    int jobs = 1;
    double wall_ms = 0.0;
    ArtifactCache::Counters cache;
};

/** Thread-pooled executor of pipeline cells. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentOptions opts = {});

    /**
     * Run every cell (concurrently when jobs != 1) and return the
     * results in cell order. If any cell fails, the first failing
     * cell's error (in cell order) is rethrown after the batch
     * drains.
     */
    std::vector<PipelineResult> runAll(
        const std::vector<ExperimentCell> &cells);

    /** Summary of the most recent runAll(). */
    const ExperimentSummary &summary() const { return summary_; }

    /**
     * Observability artifacts of the most recent runAll(), parallel
     * to its result vector. Null for cells whose obs-profile pass was
     * skipped (no profile_stalls and no trace, or simulate off).
     * PipelineResult stays a plain value (the determinism oracle
     * compares it with ==), so the artifacts travel beside it, not
     * inside it.
     */
    const std::vector<std::shared_ptr<const ObsProfileArtifact>> &
    obsProfiles() const
    {
        return obs_profiles_;
    }

    /**
     * Decision-provenance artifacts of the most recent runAll(),
     * parallel to its result vector. Null for cells that did not set
     * PipelineOptions::record_provenance.
     */
    const std::vector<std::shared_ptr<const ProvenanceArtifact>> &
    provenances() const
    {
        return provenances_;
    }

    /**
     * Pass records of the most recent runAll(), parallel to its
     * result vector (each cell's PipelineContext::pass_stats). A
     * work counter sits only on the cell that computed the artifact,
     * so summing over cells gives the batch's work.
     */
    const std::vector<std::vector<PassStats>> &passStats() const
    {
        return pass_stats_;
    }

    ArtifactCache &cache() { return cache_; }

    /** Resolved worker count for this configuration. */
    int effectiveJobs() const;

  private:
    ExperimentOptions opts_;
    ArtifactCache cache_;
    ExperimentSummary summary_;
    std::vector<std::shared_ptr<const ObsProfileArtifact>> obs_profiles_;
    std::vector<std::shared_ptr<const ProvenanceArtifact>> provenances_;
    std::vector<std::vector<PassStats>> pass_stats_;
};

} // namespace gmt

#endif // GMT_DRIVER_EXPERIMENT_HPP
