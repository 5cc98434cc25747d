#include "sim/sync_array_timing.hpp"

namespace gmt
{

SyncArrayTiming::SyncArrayTiming(const MachineConfig &config)
    : config_(config), num_queues_(config.sa_queues),
      queues_(config.sa_queues, config.queue_capacity),
      versions_(config.sa_queues, 0)
{
}

} // namespace gmt
