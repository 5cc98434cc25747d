#include "sim/cmp_simulator.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/interpreter.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/**
 * In-flight state of one core. Beyond the architectural state, the
 * core memoizes why it last failed to issue (its wait record): a core
 * blocked on an operand knows the exact cycle it becomes actionable,
 * and a core blocked on a queue records the queue's version stamp so
 * the matching produce/consume (the only events that can unblock it)
 * re-arm it. The wait records are what the cycle-skip engine reads to
 * find the next event; the lock-step build writes them but never
 * reads them.
 */
struct SimCore
{
    enum class Wait : uint8_t {
        None,       ///< must sweep next cycle (no proof of stall)
        Operand,    ///< blocked until reg_ready: actionable at `wake`
        QueueFull,  ///< produce blocked; re-armed by a version bump
        QueueEmpty, ///< consume blocked; re-armed by a version bump
    };

    const DecodedThread *t = nullptr;
    std::vector<int64_t> regs;
    std::vector<uint64_t> reg_ready; ///< cycle the value is usable
    int32_t ip = 0;
    bool done = false;
    uint64_t done_at = 0; ///< cycle the core retired its Ret

    Wait wait = Wait::None;
    uint64_t wake = 0;        ///< Wait::Operand: first actionable cycle
    QueueId wait_queue = kNoQueue;
    uint64_t wait_version = 0;
};

/** Wedge threshold (cycles with no progress). */
constexpr uint64_t kWedgeCycles = 100000;

[[noreturn]] void
wedged(uint64_t now)
{
    fatal("timing simulator wedged (deadlock in generated "
          "code?) at cycle ",
          now);
}

[[noreturn]] void
outOfCycles(uint64_t now)
{
    fatal("timing simulator ran out of its cycle budget (livelock in "
          "generated code?) at cycle ",
          now);
}

using SimClock = std::chrono::steady_clock;

double
msSince(SimClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(SimClock::now() -
                                                     t0)
        .count();
}

/*
 * The one issue loop, built four times from two compile-time flags.
 * Every build walks the pre-decoded streams (decoded_program.hpp) and
 * shares every issue rule, stall charge, the closed form of idle_done
 * and the final tallies.
 *
 * kObs says whether a SimProfile or TimelineBuilder may be attached.
 * Without it (no instrument attached, the common case) the profile
 * and timeline notes are compiled out rather than tested per charge:
 * fewer live values in the hot loop.
 *
 * kSkip guards exactly the two event-driven mechanisms (the full
 * argument lives in DESIGN.md); without it (SimEngine::Reference) the
 * loop sweeps every live core on every cycle, the lock-step reference
 * both mechanisms are tested against.
 *
 *  1. Wait records: a core that failed to issue remembers why. An
 *     operand stall is actionable at a known cycle (reg_ready only
 *     changes when the core itself issues); a queue stall is
 *     actionable only after the queue's version stamp changes (only
 *     produce/consume — i.e. another core's progress — can change
 *     the occupancy). Until then the core charges the same stall
 *     counter a sweep would recompute, without decoding anything.
 *
 *  2. Cycle skipping: in a cycle where no core made progress and
 *     every live core holds a wait record, the next cycles are
 *     provably identical no-progress sweeps until the earliest
 *     operand wake-up (queue waits cannot resolve on their own: no
 *     progress means no produce/consume). `now` jumps there and the
 *     per-core stall counters are bulk-incremented by the skipped
 *     span, so every CoreStats field equals the lock-step sweep's.
 *     The jump is capped at the wedge boundary (last_progress +
 *     kWedgeCycles + 1): a deadlocked program reaches the boundary,
 *     sweeps one fruitless cycle, and dies on the same cycle number
 *     with the same message as the lock-step loop. It is likewise
 *     capped at the cycle budget (max_cycles).
 *
 * The template has internal linkage on purpose: GCC keeps the cold
 * error paths of a COMDAT (external) instantiation inside the hot
 * function instead of splitting them out. It is cache-line aligned
 * so the issue loop's placement, which moves its speed by ~5%, does
 * not depend on how unrelated code shifts the link layout.
 */
template <bool kSkip, bool kObs>
[[gnu::aligned(64)]] SimResult
simulate(const MachineConfig &config, SimProfile *profile_in,
         TimelineBuilder *timeline_in, const DecodedProgram &prog,
         const std::vector<int64_t> &args, MemoryImage &mem,
         uint64_t max_cycles)
{
    // The lean build (kObs false) runs with neither instrument: both
    // pointers are known null there, so every profile and timeline
    // note below compiles out.
    SimProfile *profile = kObs ? profile_in : nullptr;
    TimelineBuilder *timeline = kObs ? timeline_in : nullptr;

    auto t0 = SimClock::now();
    const int nc = static_cast<int>(prog.threads.size());
    GMT_ASSERT(nc >= 1);
    if (nc > config.num_cores)
        fatal("program has ", nc, " threads but the machine has ",
              config.num_cores, " cores");

    MachineConfig cfg = config;
    cfg.queue_capacity = prog.queue_capacity;
    cfg.sa_queues = std::max(cfg.sa_queues, prog.num_queues);

    MemoryHierarchy hierarchy(cfg, nc);
    SyncArrayTiming sa(cfg);

    SimResult result;
    result.core.assign(nc, {});

    if (profile) {
        std::vector<int> blocks_per_core;
        blocks_per_core.reserve(nc);
        for (const DecodedThread &t : prog.threads)
            blocks_per_core.push_back(t.num_blocks);
        profile->init(blocks_per_core, prog.num_queues);
    }
    if (timeline)
        timeline->init(nc, prog.num_queues);

    std::vector<SimCore> cores(nc);
    for (int c = 0; c < nc; ++c) {
        const DecodedThread &t = prog.threads[c];
        cores[c].t = &t;
        cores[c].regs.assign(t.num_regs, 0);
        cores[c].reg_ready.assign(t.num_regs, 0);
        GMT_ASSERT(args.size() == t.params.size());
        for (size_t i = 0; i < args.size(); ++i)
            cores[c].regs[t.params[i]] = args[i];
        cores[c].ip = t.entry;
    }

    const int lat_table[3] = {cfg.alu_latency, cfg.mul_latency,
                              cfg.div_latency};

    uint64_t now = 0;
    uint64_t last_progress = 0;
    uint64_t iterations = 0;
    uint64_t skipped = 0;
    int live = nc;

    while (live > 0) {
        if (now >= max_cycles)
            outOfCycles(now);
        sa.beginCycle();
        ++iterations;
        bool progressed = false;

        for (int c = 0; c < nc; ++c) {
            SimCore &cs = cores[c];
            CoreStats &st = result.core[c];
            // idle_done has a closed form (cycles - 1 - done_at),
            // filled in after the loop; done cores cost nothing here.
            if (cs.done)
                continue;

            // Wait records: still provably blocked, so charge the
            // stall a sweep would recompute and move on. The blocked
            // instruction is code[ip] (ip never moves while blocked),
            // so block_of[ip] is the block a sweep would charge.
            if constexpr (kSkip) {
                if (cs.wait == SimCore::Wait::Operand &&
                    now < cs.wake) {
                    ++st.stall_operand;
                    if (profile)
                        profile->chargeOperand(
                            c, cs.t->block_of[cs.ip], 1);
                    if (timeline)
                        timeline->noteCore(
                            c, CoreState::StallOperand, now);
                    continue;
                }
                if (cs.wait == SimCore::Wait::QueueFull &&
                    sa.version(cs.wait_queue) == cs.wait_version) {
                    ++st.stall_queue_full;
                    if (profile)
                        profile->chargeQueueFull(
                            c, cs.t->block_of[cs.ip], cs.wait_queue,
                            1);
                    if (timeline)
                        timeline->noteCore(
                            c, CoreState::StallQueueFull, now);
                    continue;
                }
                if (cs.wait == SimCore::Wait::QueueEmpty &&
                    sa.version(cs.wait_queue) == cs.wait_version) {
                    ++st.stall_queue_empty;
                    if (profile)
                        profile->chargeQueueEmpty(
                            c, cs.t->block_of[cs.ip], cs.wait_queue,
                            1);
                    if (timeline)
                        timeline->noteCore(
                            c, CoreState::StallQueueEmpty, now);
                    continue;
                }
            }
            cs.wait = SimCore::Wait::None;

            const DecodedInstr *code = cs.t->code.data();
            int issued = 0;
            int mem_issued = 0;
            int free_ops = 0; // Jmp pseudo-ops retired this cycle
            bool stalled = false;
            // The (at most one) stall counter charged this cycle;
            // the timeline's state when nothing issued.
            CoreState cause = CoreState::Compute;
            bool charged = false;

            while (!cs.done && !stalled &&
                   issued < cfg.issue_width && free_ops < 64) {
                const DecodedInstr &d = code[cs.ip];

                // Scoreboard: stall-on-use.
                uint64_t ready = 0;
                if (d.nsrc >= 1 && d.src1 != kNoReg)
                    ready = std::max(ready, cs.reg_ready[d.src1]);
                if (d.nsrc >= 2 && d.src2 != kNoReg)
                    ready = std::max(ready, cs.reg_ready[d.src2]);
                if (d.op == Opcode::Ret) {
                    for (Reg r : cs.t->live_outs)
                        ready = std::max(ready, cs.reg_ready[r]);
                }
                if (ready > now) {
                    if (issued == 0) {
                        ++st.stall_operand;
                        if (profile)
                            profile->chargeOperand(
                                c, cs.t->block_of[cs.ip], 1);
                        cause = CoreState::StallOperand;
                        charged = true;
                    }
                    cs.wait = SimCore::Wait::Operand;
                    cs.wake = ready;
                    break;
                }

                if (d.mem_port && mem_issued >= cfg.mem_ports) {
                    if (issued == 0) {
                        ++st.stall_mem_port;
                        if (profile)
                            profile->chargeMemPort(
                                c, cs.t->block_of[cs.ip], 1);
                        cause = CoreState::StallMemPort;
                        charged = true;
                    }
                    break;
                }

                int32_t next_ip = cs.ip + 1;
                auto alu = [&](Opcode op) {
                    int64_t a =
                        d.src1 != kNoReg ? cs.regs[d.src1] : 0;
                    int64_t b =
                        d.src2 != kNoReg ? cs.regs[d.src2] : 0;
                    cs.regs[d.dst] = evalAlu(op, a, b, d.imm);
                    cs.reg_ready[d.dst] =
                        now + lat_table[static_cast<int>(d.lat)];
                };
                switch (d.op) {
                  case Opcode::Load: {
                    int64_t addr = cs.regs[d.src1] + d.imm;
                    int lat = hierarchy.loadLatency(c, addr);
                    cs.regs[d.dst] = mem.read(addr);
                    cs.reg_ready[d.dst] = now + lat;
                    break;
                  }
                  case Opcode::Store: {
                    int64_t addr = cs.regs[d.src1] + d.imm;
                    hierarchy.storeLatency(c, addr);
                    mem.write(addr, cs.regs[d.src2]);
                    break;
                  }
                  case Opcode::Produce:
                  case Opcode::ProduceSync: {
                    if (!sa.canProduce(d.queue)) {
                        ++st.stall_queue_full;
                        if (profile)
                            profile->chargeQueueFull(
                                c, cs.t->block_of[cs.ip], d.queue, 1);
                        cause = CoreState::StallQueueFull;
                        charged = true;
                        cs.wait = SimCore::Wait::QueueFull;
                        cs.wait_queue = d.queue;
                        cs.wait_version = sa.version(d.queue);
                        stalled = true;
                        continue;
                    }
                    if (!sa.portAvailable()) {
                        ++st.stall_sa_port;
                        if (profile)
                            profile->chargeSaPort(
                                c, cs.t->block_of[cs.ip], d.queue, 1);
                        cause = CoreState::StallSaPort;
                        charged = true;
                        sa.notePortConflict();
                        stalled = true;
                        continue;
                    }
                    int64_t v = d.op == Opcode::Produce
                                    ? cs.regs[d.src1]
                                    : 1;
                    sa.produce(d.queue, v);
                    if (profile)
                        profile->noteProduce(d.queue);
                    if (timeline)
                        timeline->noteQueue(d.queue, now,
                                             sa.occupancy(d.queue));
                    break;
                  }
                  case Opcode::Consume:
                  case Opcode::ConsumeSync: {
                    if (!sa.canConsume(d.queue)) {
                        ++st.stall_queue_empty;
                        if (profile)
                            profile->chargeQueueEmpty(
                                c, cs.t->block_of[cs.ip], d.queue, 1);
                        cause = CoreState::StallQueueEmpty;
                        charged = true;
                        cs.wait = SimCore::Wait::QueueEmpty;
                        cs.wait_queue = d.queue;
                        cs.wait_version = sa.version(d.queue);
                        stalled = true;
                        continue;
                    }
                    if (!sa.portAvailable()) {
                        ++st.stall_sa_port;
                        if (profile)
                            profile->chargeSaPort(
                                c, cs.t->block_of[cs.ip], d.queue, 1);
                        cause = CoreState::StallSaPort;
                        charged = true;
                        sa.notePortConflict();
                        stalled = true;
                        continue;
                    }
                    int64_t v = sa.consume(d.queue);
                    if (profile)
                        profile->noteConsume(d.queue);
                    if (timeline)
                        timeline->noteQueue(d.queue, now,
                                             sa.occupancy(d.queue));
                    if (d.op == Opcode::Consume) {
                        cs.regs[d.dst] = v;
                        cs.reg_ready[d.dst] = now + sa.latency();
                    }
                    break;
                  }
                  case Opcode::Br:
                    next_ip =
                        (cs.regs[d.src1] != 0) ? d.next : d.br_not;
                    break;
                  case Opcode::Jmp:
                    // Free pseudo-op (fall-through after layout): no
                    // issue slot, no instruction count.
                    cs.ip = d.next;
                    ++free_ops;
                    progressed = true;
                    continue;
                  case Opcode::Ret:
                    cs.done = true;
                    cs.done_at = now;
                    --live;
                    for (Reg r : cs.t->live_outs)
                        result.live_outs.push_back(cs.regs[r]);
                    break;
                  // One case per ALU opcode: evalAlu sees a constant
                  // opcode and folds to that one operation, so each
                  // instruction is dispatched once.
                  case Opcode::Const: alu(Opcode::Const); break;
                  case Opcode::Mov: alu(Opcode::Mov); break;
                  case Opcode::Add: alu(Opcode::Add); break;
                  case Opcode::Sub: alu(Opcode::Sub); break;
                  case Opcode::Mul: alu(Opcode::Mul); break;
                  case Opcode::Div: alu(Opcode::Div); break;
                  case Opcode::Rem: alu(Opcode::Rem); break;
                  case Opcode::And: alu(Opcode::And); break;
                  case Opcode::Or: alu(Opcode::Or); break;
                  case Opcode::Xor: alu(Opcode::Xor); break;
                  case Opcode::Shl: alu(Opcode::Shl); break;
                  case Opcode::Shr: alu(Opcode::Shr); break;
                  case Opcode::Neg: alu(Opcode::Neg); break;
                  case Opcode::Not: alu(Opcode::Not); break;
                  case Opcode::Min: alu(Opcode::Min); break;
                  case Opcode::Max: alu(Opcode::Max); break;
                  case Opcode::Abs: alu(Opcode::Abs); break;
                  case Opcode::CmpEq: alu(Opcode::CmpEq); break;
                  case Opcode::CmpNe: alu(Opcode::CmpNe); break;
                  case Opcode::CmpLt: alu(Opcode::CmpLt); break;
                  case Opcode::CmpLe: alu(Opcode::CmpLe); break;
                  case Opcode::CmpGt: alu(Opcode::CmpGt); break;
                  case Opcode::CmpGe: alu(Opcode::CmpGe); break;
                }

                ++issued;
                if (d.mem_port)
                    ++mem_issued;
                st.counts.count(d.stat);
                progressed = true;
                if (cs.done)
                    break;
                cs.ip = next_ip;
            }

            if (timeline) {
                CoreState s = (issued > 0 || !charged)
                                  ? CoreState::Compute
                                  : cause;
                timeline->noteCore(c, s, now);
            }
        }

        if (progressed)
            last_progress = now;
        if (now - last_progress > kWedgeCycles)
            wedged(now);

        if constexpr (kSkip) {
            if (!progressed && live > 0) {
                // Cycle-skip engine: find the next actionable cycle.
                uint64_t next_event = UINT64_MAX;
                bool skippable = true;
                for (int c = 0; c < nc && skippable; ++c) {
                    const SimCore &cs = cores[c];
                    if (cs.done)
                        continue;
                    switch (cs.wait) {
                      case SimCore::Wait::Operand:
                        next_event = std::min(next_event, cs.wake);
                        break;
                      case SimCore::Wait::QueueFull:
                      case SimCore::Wait::QueueEmpty:
                        // Only another core's progress can re-arm it; no
                        // event of its own.
                        break;
                      case SimCore::Wait::None:
                        // No proof the next cycle looks the same (port
                        // budgets reset); sweep it.
                        skippable = false;
                        break;
                    }
                }
                if (skippable) {
                    // Never skip past the wedge boundary: if next_event
                    // is beyond it (or does not exist — all cores queue
                    // blocked), the sweep at the boundary makes no
                    // progress and dies exactly like the lock-step
                    // build. Nor past the cycle budget, which then fires
                    // at the same cycle as the lock-step build's.
                    uint64_t target = last_progress + kWedgeCycles + 1;
                    if (next_event < target)
                        target = next_event;
                    target = std::min(target, max_cycles);
                    if (target > now + 1) {
                        // Cycles (now, target) are identical no-progress
                        // sweeps: bulk-charge the same counter — and the
                        // same (block, queue) attribution — each would
                        // have charged one at a time.
                        uint64_t span = target - now - 1;
                        for (int c = 0; c < nc; ++c) {
                            SimCore &cs = cores[c];
                            CoreStats &st = result.core[c];
                            CoreState s;
                            if (cs.done)
                                continue; // closed form, see below
                            else if (cs.wait == SimCore::Wait::Operand) {
                                st.stall_operand += span;
                                if (profile)
                                    profile->chargeOperand(
                                        c, cs.t->block_of[cs.ip], span);
                                s = CoreState::StallOperand;
                            } else if (cs.wait ==
                                       SimCore::Wait::QueueFull) {
                                st.stall_queue_full += span;
                                if (profile)
                                    profile->chargeQueueFull(
                                        c, cs.t->block_of[cs.ip],
                                        cs.wait_queue, span);
                                s = CoreState::StallQueueFull;
                            } else {
                                st.stall_queue_empty += span;
                                if (profile)
                                    profile->chargeQueueEmpty(
                                        c, cs.t->block_of[cs.ip],
                                        cs.wait_queue, span);
                                s = CoreState::StallQueueEmpty;
                            }
                            if (timeline)
                                timeline->noteCoreSpan(c, s, now + 1,
                                                        target);
                        }
                        skipped += span;
                        now = target;
                        continue;
                    }
                }
            }
        }
        ++now;
    }

    result.cycles = now;
    result.queues_drained = sa.allDrained();
    result.sa_port_conflicts = sa.portConflicts();
    for (int c = 0; c < nc; ++c) {
        // A sweep would charge a done core one idle_done per
        // remaining cycle; that is exactly the cycles after its Ret
        // up to (and including) the last simulated cycle, cycles - 1.
        result.core[c].idle_done = now - 1 - cores[c].done_at;
        if (timeline)
            timeline->noteCoreSpan(c, CoreState::Idle,
                                    cores[c].done_at + 1, now);
        result.l1_hits += hierarchy.l1(c).hits();
        result.l1_misses += hierarchy.l1(c).misses();
        result.l2_hits += hierarchy.l2(c).hits();
        result.l2_misses += hierarchy.l2(c).misses();
    }
    result.l3_hits = hierarchy.l3().hits();
    result.l3_misses = hierarchy.l3().misses();
    result.engine.engine = kSkip ? SimEngine::Fast : SimEngine::Reference;
    result.engine.iterations = iterations;
    result.engine.skipped = skipped;
    result.engine.wall_ms = msSince(t0);
    return result;
}

} // namespace

const char *
simEngineName(SimEngine e)
{
    return e == SimEngine::Fast ? "fast" : "reference";
}

CmpSimulator::CmpSimulator(const MachineConfig &config, SimEngine engine)
    : config_(config), engine_(engine)
{
}

SimResult
CmpSimulator::run(const MtProgram &prog,
                  const std::vector<int64_t> &args, MemoryImage &mem,
                  uint64_t max_cycles)
{
    return run(decodeProgram(prog), args, mem, max_cycles);
}

SimResult
CmpSimulator::run(const DecodedProgram &prog,
                  const std::vector<int64_t> &args, MemoryImage &mem,
                  uint64_t max_cycles)
{
    // Runs with no instrument attached take the lean build.
    const bool obs = profile_ || timeline_;
    const MachineConfig &c = config_;
    if (engine_ == SimEngine::Fast)
        return obs ? simulate<true, true>(c, profile_, timeline_, prog,
                                          args, mem, max_cycles)
                   : simulate<true, false>(c, nullptr, nullptr, prog,
                                           args, mem, max_cycles);
    return obs ? simulate<false, true>(c, profile_, timeline_, prog, args,
                                       mem, max_cycles)
               : simulate<false, false>(c, nullptr, nullptr, prog, args,
                                        mem, max_cycles);
}

SimResult
simulateChecked(const SimCheck &chk, const DecodedProgram &prog,
                const char *which, const std::string &cell,
                SimProfile *profile, TimelineBuilder *timeline)
{
    MemoryImage mem = chk.make_memory();
    CmpSimulator sim(chk.machine, chk.engine);
    sim.setProfile(profile);
    sim.setTimeline(timeline);
    SimResult r = sim.run(prog, *chk.args, mem);
    if (const char *what = outputMismatch(r.live_outs, mem,
                                          r.queues_drained,
                                          *chk.live_outs, *chk.final_mem))
        fatal(which, " output mismatch for ", cell, ": ", what);
    return r;
}

std::vector<CoreStallTotals>
stallTotals(const SimResult &r)
{
    std::vector<CoreStallTotals> totals(r.core.size());
    for (size_t c = 0; c < r.core.size(); ++c) {
        const CoreStats &st = r.core[c];
        totals[c].operand = st.stall_operand;
        totals[c].mem_port = st.stall_mem_port;
        totals[c].queue_full = st.stall_queue_full;
        totals[c].queue_empty = st.stall_queue_empty;
        totals[c].sa_port = st.stall_sa_port;
    }
    return totals;
}

SimResult
simulateSingleThreaded(const Function &f,
                       const std::vector<int64_t> &args,
                       MemoryImage &mem, const MachineConfig &config,
                       SimEngine engine)
{
    DecodedProgram prog;
    prog.threads.push_back(decodeThread(f));
    prog.queue_capacity = config.queue_capacity;
    return CmpSimulator(config, engine).run(prog, args, mem);
}

} // namespace gmt
