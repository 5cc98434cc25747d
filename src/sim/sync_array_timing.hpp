#ifndef GMT_SIM_SYNC_ARRAY_TIMING_HPP
#define GMT_SIM_SYNC_ARRAY_TIMING_HPP

/**
 * @file
 * Timing model of the synchronization array [19]: fixed-depth queues
 * with a 1-cycle access latency and a limited number of request ports
 * shared between the cores ("four request ports that are shared
 * between the two cores", paper §4). Occupancy gates produce (full)
 * and consume (empty); the port budget resets every cycle.
 *
 * Values and occupancy live in a runtime/SyncArray, the same ring
 * the MT interpreter uses; this class adds only the per-cycle port
 * budget, per-queue version stamps, the port-conflict count and the
 * queue count its range asserts check.
 *
 * Wakeup support for the simulator's wait records: every produce or
 * consume bumps the queue's version stamp, so a core blocked on an
 * empty/full queue records (queue, version) once and is re-armed by
 * the matching produce/consume — a changed stamp — instead of
 * re-polling the queue's occupancy every cycle.
 *
 * Every per-access method is inline: the simulator calls them once
 * per communication instruction and once per cycle (beginCycle).
 */

#include <cstdint>
#include <vector>

#include "runtime/sync_array.hpp"
#include "sim/machine_config.hpp"
#include "support/error.hpp"

namespace gmt
{

/** Cycle-stepped synchronization array. */
class SyncArrayTiming
{
  public:
    explicit SyncArrayTiming(const MachineConfig &config);

    /** Call at the top of every simulated cycle. */
    void beginCycle() { ports_used_ = 0; }

    /** Is a request port available this cycle? */
    bool portAvailable() const
    {
        return ports_used_ < config_.sa_ports;
    }

    /** Can queue @p q accept a produce this cycle? */
    bool canProduce(int q) const
    {
        GMT_ASSERT(q >= 0 && q < num_queues_,
                   "sync array has only ", num_queues_, " queues");
        return !queues_.full(q);
    }

    /** Does queue @p q hold a consumable value this cycle? */
    bool canConsume(int q) const
    {
        GMT_ASSERT(q >= 0 && q < num_queues_);
        return !queues_.empty(q);
    }

    /** Perform the produce (consumes a port). */
    void produce(int q, int64_t value)
    {
        GMT_ASSERT(canProduce(q) && portAvailable());
        queues_.produce(q, value);
        ++versions_[q];
        ++ports_used_;
    }

    /** Perform the consume (consumes a port). @return the value. */
    int64_t consume(int q)
    {
        GMT_ASSERT(canConsume(q) && portAvailable());
        int64_t v = 0;
        queues_.consume(q, v);
        ++versions_[q];
        ++ports_used_;
        return v;
    }

    int latency() const { return config_.sa_latency; }

    /** Current occupancy of queue @p q (timeline sampling). */
    int occupancy(int q) const
    {
        GMT_ASSERT(q >= 0 && q < num_queues_);
        return queues_.occupancy(q);
    }

    bool allDrained() const { return queues_.allDrained(); }

    /**
     * Version stamp of queue @p q, bumped by every produce and
     * consume. A blocked core re-attempts only when the stamp it
     * recorded at block time has changed (the wakeup signal).
     */
    uint64_t version(int q) const
    {
        GMT_ASSERT(q >= 0 && q < num_queues_);
        return versions_[q];
    }

    uint64_t portConflicts() const { return port_conflicts_; }

    /** Record that a request was denied for lack of a port. */
    void notePortConflict() { ++port_conflicts_; }

  private:
    MachineConfig config_;
    /** Bound of the range asserts. An int rather than a vector size:
     *  the simulator's hot loop then keeps fewer values live. */
    int num_queues_;
    SyncArray queues_;
    std::vector<uint64_t> versions_;
    int ports_used_ = 0;
    uint64_t port_conflicts_ = 0;
};

} // namespace gmt

#endif // GMT_SIM_SYNC_ARRAY_TIMING_HPP
