#include "driver/experiment.hpp"

#include <chrono>
#include <exception>

#include "support/thread_pool.hpp"

namespace gmt
{

ExperimentRunner::ExperimentRunner(ExperimentOptions opts)
    : opts_(opts)
{
}

int
ExperimentRunner::effectiveJobs() const
{
    if (opts_.jobs > 0)
        return opts_.jobs;
    return ThreadPool::hardwareDefault();
}

std::vector<PipelineResult>
ExperimentRunner::runAll(const std::vector<ExperimentCell> &cells)
{
    using Clock = std::chrono::steady_clock;
    auto t0 = Clock::now();

    const int jobs = effectiveJobs();
    const PassManager pipeline = PassManager::standardPipeline();
    ArtifactCache *cache = opts_.use_cache ? &cache_ : nullptr;

    std::vector<PipelineResult> results(cells.size());
    std::vector<std::exception_ptr> errors(cells.size());
    obs_profiles_.assign(cells.size(), nullptr);
    provenances_.assign(cells.size(), nullptr);
    pass_stats_.assign(cells.size(), {});

    auto run_cell = [&](size_t i) {
        try {
            PipelineContext ctx(cells[i].workload, cells[i].opts);
            ctx.cache = cache;
            ctx.stats = opts_.stats;
            ctx.trace = opts_.trace;
            pipeline.run(ctx);
            results[i] = std::move(ctx.result);
            obs_profiles_[i] = ctx.obs;
            provenances_[i] = ctx.prov;
            pass_stats_[i] = std::move(ctx.pass_stats);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (jobs == 1 || cells.size() <= 1) {
        for (size_t i = 0; i < cells.size(); ++i)
            run_cell(i);
    } else {
        ThreadPool pool(jobs);
        for (size_t i = 0; i < cells.size(); ++i)
            pool.submit([&, i] { run_cell(i); });
        pool.wait();
    }

    summary_.cells = static_cast<int>(cells.size());
    summary_.jobs = jobs;
    summary_.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    summary_.cache = cache_.counters();

    // Deterministic error reporting: first failing cell in cell order.
    for (auto &err : errors)
        if (err)
            std::rethrow_exception(err);

    return results;
}

} // namespace gmt
