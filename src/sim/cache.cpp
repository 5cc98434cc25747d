#include "sim/cache.hpp"

#include <bit>

#include "support/error.hpp"

namespace gmt
{

Cache::Cache(const CacheConfig &config)
    : assoc_(config.associativity), hit_latency_(config.hit_latency)
{
    GMT_ASSERT(config.line_bytes > 0 && config.associativity > 0);
    int lines = config.size_bytes / config.line_bytes;
    GMT_ASSERT(lines > 0);
    int num_sets = lines / config.associativity;
    GMT_ASSERT(num_sets > 0, "cache too small for associativity");
    if (!std::has_single_bit(static_cast<unsigned>(config.line_bytes)) ||
        !std::has_single_bit(static_cast<unsigned>(num_sets)))
        fatal("cache geometry must be a power of two: ", num_sets,
              " sets of ", config.line_bytes, "-byte lines");
    line_shift_ = std::countr_zero(static_cast<unsigned>(config.line_bytes));
    set_mask_ = static_cast<uint64_t>(num_sets) - 1;
    lines_.assign(static_cast<size_t>(num_sets) * assoc_, {});
}

MemoryHierarchy::MemoryHierarchy(const MachineConfig &config,
                                 int num_cores)
    : memory_latency_(config.memory_latency), l3_(config.l3)
{
    for (int c = 0; c < num_cores; ++c) {
        l1_.emplace_back(config.l1d);
        l2_.emplace_back(config.l2);
    }
}

} // namespace gmt
