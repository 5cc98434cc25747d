#ifndef GMT_SIM_CACHE_HPP
#define GMT_SIM_CACHE_HPP

/**
 * @file
 * Set-associative LRU cache model and the per-core hierarchy of
 * Figure 6(a): private L1D and L2, shared L3, main memory, with a
 * snoop-based write-invalidate protocol between the cores' private
 * levels. Timing only — data values live in the functional
 * MemoryImage; the model returns access latencies.
 *
 * Every access path is defined in this header: the simulator pays one
 * per load or store. Line size and set count must be powers of two
 * (checked at construction), so the line and set index are a shift
 * and a mask.
 */

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"

namespace gmt
{

/** One set-associative LRU cache. */
class Cache
{
  public:
    /**
     * Raises a FatalError unless the line size and the set count
     * (size / line / associativity) are powers of two.
     */
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr (byte address). On a hit the line's LRU state
     * is refreshed. @return hit?
     */
    bool
    lookup(uint64_t addr)
    {
        const uint64_t key = keyOf(addr);
        Line *base = setOf(key);
        for (int w = 0; w < assoc_; ++w) {
            if (base[w].key == key) {
                base[w].lru = ++stamp_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** Install the line holding @p addr (an invalid way, else LRU). */
    void
    fill(uint64_t addr)
    {
        const uint64_t key = keyOf(addr);
        Line *base = setOf(key);
        Line *victim = &base[0];
        for (int w = 0; w < assoc_; ++w) {
            if (base[w].key == 0) {
                victim = &base[w];
                break;
            }
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        victim->key = key;
        victim->lru = ++stamp_;
    }

    /** Invalidate the line holding @p addr if present. */
    void
    invalidate(uint64_t addr)
    {
        const uint64_t key = keyOf(addr);
        Line *base = setOf(key);
        for (int w = 0; w < assoc_; ++w) {
            if (base[w].key == key)
                base[w].key = 0;
        }
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    int hitLatency() const { return hit_latency_; }

  private:
    struct Line
    {
        uint64_t key = 0; ///< line number + 1; 0 = invalid
        uint64_t lru = 0; ///< last-touch stamp
    };

    /** Line number + 1 of @p addr (never 0 for the 8-byte-aligned
     *  addresses of cells). */
    uint64_t keyOf(uint64_t addr) const
    {
        return (addr >> line_shift_) + 1;
    }

    Line *setOf(uint64_t key)
    {
        return lines_.data() +
               static_cast<size_t>((key - 1) & set_mask_) * assoc_;
    }

    int assoc_;
    int hit_latency_;
    int line_shift_;    ///< log2(line_bytes)
    uint64_t set_mask_; ///< num_sets - 1
    std::vector<Line> lines_; ///< num_sets x associativity
    uint64_t stamp_ = 0;
    uint64_t hits_ = 0, misses_ = 0;
};

/** Per-core private levels over a shared L3 with write-invalidate. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const MachineConfig &config, int num_cores);

    /** Latency of a load of cell index @p cell by core @p core. */
    int loadLatency(int core, int64_t cell)
    {
        return accessLatency(core, cell, false);
    }

    /**
     * Latency of a store (write-through L1, write-back below;
     * modeled as the fill latency of the owning level) plus snoop
     * invalidation of the other cores' private lines.
     */
    int storeLatency(int core, int64_t cell)
    {
        return accessLatency(core, cell, true);
    }

    const Cache &l1(int core) const { return l1_[core]; }
    const Cache &l2(int core) const { return l2_[core]; }
    const Cache &l3() const { return l3_; }

  private:
    /** Not inlined into its caller: inlined into the simulator's
     *  issue loop, the walk adds spills there and costs more than the
     *  call. Lookup, fill and invalidate inline into it. */
    [[gnu::noinline]] int
    accessLatency(int core, int64_t cell, bool is_store)
    {
        const uint64_t addr = static_cast<uint64_t>(cell) * 8; // 8-byte cells
        Cache &l1 = l1_[core];
        Cache &l2 = l2_[core];
        int latency;
        if (l1.lookup(addr)) {
            latency = l1.hitLatency();
        } else if (l2.lookup(addr)) {
            latency = l2.hitLatency();
            l1.fill(addr);
        } else if (l3_.lookup(addr)) {
            latency = l3_.hitLatency();
            l2.fill(addr);
            l1.fill(addr);
        } else {
            latency = memory_latency_;
            l3_.fill(addr);
            l2.fill(addr);
            l1.fill(addr);
        }
        if (is_store) {
            // Snoop-based write-invalidate: other cores drop their copy.
            for (size_t c = 0; c < l1_.size(); ++c) {
                if (static_cast<int>(c) != core) {
                    l1_[c].invalidate(addr);
                    l2_[c].invalidate(addr);
                }
            }
        }
        return latency;
    }

    int memory_latency_;
    std::vector<Cache> l1_, l2_;
    Cache l3_;
};

} // namespace gmt

#endif // GMT_SIM_CACHE_HPP
