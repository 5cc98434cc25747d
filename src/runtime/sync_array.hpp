#ifndef GMT_RUNTIME_SYNC_ARRAY_HPP
#define GMT_RUNTIME_SYNC_ARRAY_HPP

/**
 * @file
 * Functional model of the synchronization array [19]: a set of
 * fixed-depth blocking queues addressed by produce/consume. This class
 * models only values and occupancy; timing lives in sim/
 * (sync_array_timing.hpp wraps this ring).
 *
 * The paper's configuration: 256 queues of a single element for
 * GREMIO, 32-element queues for DSWP's pipeline decoupling.
 *
 * Storage is one flat ring-buffer arena (num_queues x capacity) and
 * the hot produce/consume paths are inline: the MT interpreter and the
 * timing simulator call them once per communication instruction.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gmt
{

/** Blocking-queue array; produce/consume return false when blocked. */
class SyncArray
{
  public:
    /**
     * @param num_queues number of independent queues.
     * @param capacity   per-queue element capacity (>= 1).
     */
    SyncArray(int num_queues, int capacity);

    /** Try to enqueue; @return false if the queue is full. */
    bool produce(int queue, int64_t value)
    {
        Ring &q = queues_[queue];
        if (q.count >= capacity_)
            return false;
        slots_[static_cast<size_t>(queue) * capacity_ + q.tail] = value;
        q.tail = (q.tail + 1 == capacity_) ? 0 : q.tail + 1;
        ++q.count;
        return true;
    }

    /** Try to dequeue into @p out; @return false if empty. */
    bool consume(int queue, int64_t &out)
    {
        Ring &q = queues_[queue];
        if (q.count == 0)
            return false;
        out = slots_[static_cast<size_t>(queue) * capacity_ + q.head];
        q.head = (q.head + 1 == capacity_) ? 0 : q.head + 1;
        --q.count;
        return true;
    }

    bool full(int queue) const
    {
        return queues_[queue].count >= capacity_;
    }

    bool empty(int queue) const { return queues_[queue].count == 0; }

    int occupancy(int queue) const { return queues_[queue].count; }

    /** True if every queue is empty (deadlock-freedom postcondition). */
    bool allDrained() const;

  private:
    struct Ring
    {
        int head = 0, tail = 0, count = 0;
    };

    std::vector<Ring> queues_;
    std::vector<int64_t> slots_; ///< num_queues x capacity arena
    int capacity_;
};

} // namespace gmt

#endif // GMT_RUNTIME_SYNC_ARRAY_HPP
