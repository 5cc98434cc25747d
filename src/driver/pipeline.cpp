#include "driver/pipeline.hpp"

#include "driver/pass_manager.hpp"

namespace gmt
{

const char *
schedulerName(Scheduler s)
{
    return s == Scheduler::Dswp ? "DSWP" : "GREMIO";
}

// Compatibility wrapper: one uncached, serial run of the standard
// pass pipeline (see pass_manager.hpp). Batch callers should use
// ExperimentRunner (driver/experiment.hpp) to get artifact caching
// and the thread pool.
PipelineResult
runPipeline(const Workload &workload, const PipelineOptions &opts)
{
    PipelineContext ctx(workload, opts);
    PassManager::standardPipeline().run(ctx);
    return ctx.result;
}

} // namespace gmt
