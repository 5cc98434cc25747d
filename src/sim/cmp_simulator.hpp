#ifndef GMT_SIM_CMP_SIMULATOR_HPP
#define GMT_SIM_CMP_SIMULATOR_HPP

/**
 * @file
 * CMP timing simulator: in-order multi-issue cores with the Figure
 * 6(a) memory hierarchy and synchronization array. It executes an
 * MtProgram functionally while charging cycles and counts every
 * issued instruction per core in the Fig. 7 categories (ThreadStats),
 * so one simulated run is a schedule's timing, its MT oracle and its
 * dynamic counts at once: the pass pipeline and the autotuner check
 * its live-outs, final memory and queue drain against the
 * single-threaded interpreter (simulateChecked) and publish its
 * counts. verify-mt's
 * happens-before check proves every schedule race-free, so neither
 * the output nor any thread's instruction stream depends on the
 * interleaving: the counts equal interpretMt's under any policy
 * (asserted across the benchmark matrix by tests/test_sim_fast.cpp).
 *
 * One issue loop holds the timing model. It walks pre-decoded flat
 * instruction streams (decoded_program.hpp). One compile-time flag
 * picks the engine, with bit-identical SimResults (asserted across
 * the whole benchmark matrix by tests/test_sim_fast.cpp):
 *
 *  - SimEngine::Fast (the default) keeps a wait record per stalled
 *    core — an operand's ready cycle, or a queue's version stamp
 *    (sync_array_timing.hpp) that the matching produce/consume bumps
 *    — and jumps `now` to the next actionable event when every live
 *    core is provably stalled, bulk-incrementing the per-core stall
 *    counters by the skipped span so the accounting stays exact.
 *  - SimEngine::Reference runs the same loop without both mechanisms:
 *    every live core is swept on every cycle. It is the test
 *    reference for them. DESIGN.md ("The event-driven simulator")
 *    gives the skip-safety argument.
 *
 * A second flag compiles the stall profile and timeline notes out of
 * runs with neither attached (the lean build every plain simulation
 * takes); tests/test_obs.cpp asserts that attaching them changes no
 * SimResult and no final memory.
 *
 * Model summary (substitutions documented in DESIGN.md):
 *  - in-order issue of up to issue_width instructions/cycle, at most
 *    mem_ports of which may be loads/stores/queue accesses (the
 *    Itanium 2 M-slot constraint the paper highlights);
 *  - scoreboarded stall-on-use: an instruction issues only when its
 *    source registers are ready;
 *  - perfect branch prediction (the paper's cores are validated
 *    Itanium 2 models; control costs appear through replicated
 *    branches and their operand communication, which is what COCO
 *    optimizes);
 *  - produce writes the queue at issue (commit and issue coincide in
 *    order), consume's value is usable after sa_latency cycles —
 *    back-to-back execution when the queue is non-empty;
 *  - a produce to a full queue or consume from an empty queue stalls
 *    the core; the sync array's request ports are shared per cycle.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/stall_profile.hpp"
#include "obs/timeline.hpp"
#include "runtime/memory_image.hpp"
#include "runtime/mt_interpreter.hpp"
#include "sim/cache.hpp"
#include "sim/decoded_program.hpp"
#include "sim/machine_config.hpp"
#include "sim/sync_array_timing.hpp"

namespace gmt
{

/** How the issue loop advances time (results are bit-identical). */
enum class SimEngine {
    Fast,      ///< wait records + cycle skipping
    Reference, ///< sweep every live core on every cycle
};

const char *simEngineName(SimEngine e);

/** Per-core instruction and cycle accounting. */
struct CoreStats
{
    ThreadStats counts; ///< issued instructions by class (Jmp is free)
    uint64_t stall_operand = 0;
    uint64_t stall_queue_full = 0;
    uint64_t stall_queue_empty = 0;
    uint64_t stall_sa_port = 0;
    uint64_t stall_mem_port = 0;
    uint64_t idle_done = 0; ///< cycles after this core retired

    bool operator==(const CoreStats &) const = default;
};

/**
 * How the engine got through the run — meta-instrumentation, not
 * architectural state. Excluded from SimResult equality: skipping
 * sweeps fewer cycles than it simulates, and that is the point.
 */
struct SimEngineStats
{
    SimEngine engine = SimEngine::Fast;
    uint64_t iterations = 0; ///< cycles actually swept by the loop
    uint64_t skipped = 0;    ///< cycles jumped over by the skip engine
    double wall_ms = 0.0;    ///< wall-clock time of the run

    /** Fraction of simulated cycles never swept. */
    double skipRatio() const
    {
        uint64_t total = iterations + skipped;
        return total ? static_cast<double>(skipped) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Result of a timing run. */
struct SimResult
{
    uint64_t cycles = 0;
    std::vector<CoreStats> core;
    std::vector<int64_t> live_outs;
    bool queues_drained = false;

    uint64_t l1_hits = 0, l1_misses = 0;
    uint64_t l2_hits = 0, l2_misses = 0;
    uint64_t l3_hits = 0, l3_misses = 0;
    uint64_t sa_port_conflicts = 0;

    /** Engine meta-stats; see SimEngineStats (not part of equality). */
    SimEngineStats engine;

    /**
     * Architectural equality: every simulated quantity, nothing about
     * how the engine computed it. This is the differential-testing
     * contract between SimEngine::Fast and SimEngine::Reference.
     */
    bool operator==(const SimResult &o) const
    {
        return cycles == o.cycles && core == o.core &&
               live_outs == o.live_outs &&
               queues_drained == o.queues_drained &&
               l1_hits == o.l1_hits && l1_misses == o.l1_misses &&
               l2_hits == o.l2_hits && l2_misses == o.l2_misses &&
               l3_hits == o.l3_hits && l3_misses == o.l3_misses &&
               sa_port_conflicts == o.sa_port_conflicts;
    }
};

/** The simulator. One instance per run. */
class CmpSimulator
{
  public:
    explicit CmpSimulator(const MachineConfig &config,
                          SimEngine engine = SimEngine::Fast);

    /**
     * Decode @p prog and simulate it to completion (pass a
     * DecodedProgram to amortize the decode across runs).
     * @param prog threads to run, one per core (threads <= cores).
     * @param args live-in values, broadcast to all threads.
     * @param mem  shared data memory (mutated).
     * @param max_cycles livelock budget: a run still live at this
     *        cycle raises a FatalError naming it (both engines stop at
     *        the same cycle; skipping never jumps past it).
     */
    SimResult run(const MtProgram &prog,
                  const std::vector<int64_t> &args, MemoryImage &mem,
                  uint64_t max_cycles = 500'000'000);

    /** Simulate a pre-decoded program with the configured engine. */
    SimResult run(const DecodedProgram &prog,
                  const std::vector<int64_t> &args, MemoryImage &mem,
                  uint64_t max_cycles = 500'000'000);

    /**
     * Attach a stall-attribution profile. The simulator sizes it at
     * the start of the next run and charges every stall cycle to the
     * (core, block[, queue]) that lost it — at the same architectural
     * events with or without skipping, so profiles are
     * engine-independent and sum exactly to the CoreStats aggregates
     * (the conservation invariant; see obs/stall_profile.hpp).
     * Nullptr detaches; a run with neither a profile nor a timeline
     * takes the lean build of the loop, which has no charge-site
     * tests at all.
     */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /**
     * Attach a timeline builder: one state note per core per simulated
     * cycle (compute / the charged stall cause / idle; skip spans note
     * in bulk) and a queue-occupancy sample at every produce/consume.
     * Nullptr detaches.
     */
    void setTimeline(TimelineBuilder *timeline)
    {
        timeline_ = timeline;
    }

  private:
    MachineConfig config_;
    SimEngine engine_;
    SimProfile *profile_ = nullptr;
    TimelineBuilder *timeline_ = nullptr;
};

/**
 * The stall columns of a SimResult's CoreStats, in the shape the
 * conservation check takes (obs/stall_profile.hpp).
 */
std::vector<CoreStallTotals> stallTotals(const SimResult &r);

/** A checked run's machine, reference input (live-ins, fresh memory
 *  image) and single-threaded truth (live-outs, final memory). */
struct SimCheck
{
    MachineConfig machine;
    SimEngine engine = SimEngine::Fast;
    const std::vector<int64_t> *args = nullptr;
    std::function<MemoryImage()> make_memory;
    const std::vector<int64_t> *live_outs = nullptr;
    const MemoryImage *final_mem = nullptr;
};

/**
 * Every schedule's timing run (sim pass, obs-profile, autotuner):
 * simulate @p prog on a fresh reference-input image, @p profile and
 * @p timeline attached when non-null. The run must pass the oracle
 * rule (outputMismatch: live-outs, final memory, queue drain), else a
 * FatalError "<which> output mismatch for <cell>: <what differs>".
 */
SimResult simulateChecked(const SimCheck &chk, const DecodedProgram &prog,
                          const char *which, const std::string &cell,
                          SimProfile *profile = nullptr,
                          TimelineBuilder *timeline = nullptr);

/**
 * Convenience: decode the single-threaded original and simulate it on
 * one core (the paper's speedup baseline).
 */
SimResult simulateSingleThreaded(const Function &f,
                                 const std::vector<int64_t> &args,
                                 MemoryImage &mem,
                                 const MachineConfig &config,
                                 SimEngine engine = SimEngine::Fast);

} // namespace gmt

#endif // GMT_SIM_CMP_SIMULATOR_HPP
