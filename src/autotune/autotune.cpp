#include "autotune/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "coco/validate.hpp"
#include "graph/scc.hpp"
#include "mtcg/mtcg.hpp"
#include "mtcg/queue_alloc.hpp"
#include "mtverify/mtverify.hpp"
#include "obs/metrics.hpp"
#include "obs/stall_profile.hpp"
#include "obs/stall_report.hpp"
#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "sim/decoded_program.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/** Internal working state: the public schedule plus its decoded form
 *  (kept so the accepted schedule is decoded once, then reused by the
 *  next round's instrumented profile run) and the per-core counts of
 *  its checked simulation. */
struct Working
{
    AutotuneSchedule s;
    DecodedProgram decoded;
    std::vector<ThreadStats> counts;
};

/** Simulate @p w's schedule (instrumented when @p profile is set) and
 *  apply the oracle rule against the ST reference: a mismatch is a
 *  compiler bug, fatal, naming the cell and @p what ran. Records the
 *  run's per-core counts on @p w. */
SimResult
simulateChecked(const AutotuneInputs &in, Working &w,
                SimProfile *profile, const std::string &what)
{
    MemoryImage mem = in.make_memory();
    CmpSimulator sim(in.machine, in.engine);
    sim.setProfile(profile);
    SimResult r = sim.run(w.decoded, *in.ref_args, mem);
    checkSimOutput(r, mem, *in.st_live_outs, *in.st_final_mem, "MT",
                   in.cell + ", autotune " + what);
    w.counts.clear();
    for (const CoreStats &core : r.core)
        w.counts.push_back(core.counts);
    return r;
}

/** Stall evidence of one feedback round, all additive cycle charges. */
struct Feedback
{
    /** Block stall charges (BlockAttribution), for the partitioners. */
    std::vector<uint64_t> block_boost;

    /** Queue stalls mapped to the PDG arcs each queue carries. */
    std::vector<uint64_t> arc_boost;

    /** block_boost plus queue stalls charged to the blocks holding
     *  the stalled queue's current placement points — the cut costs
     *  a re-cut solves under (pushes min cuts away from both
     *  stall-charged blocks and stalled points). */
    std::vector<uint64_t> cut_boost;
};

/** A proposed schedule change, before code generation. */
struct Candidate
{
    std::string kind; ///< "recut" | "reweight" | "migrate"
    std::string detail;
    int queue = -1;
    uint64_t stall = 0;
    ThreadPartition partition;
    CommPlan plan;
    int plan_iters = 0;
};

/** PDG arcs matching one queue placement descriptor under @p part. */
bool
arcMatchesPlacement(const PdgArc &arc, const PlacementDesc &pd,
                    const ThreadPartition &part)
{
    if (part.threadOf(arc.src) != pd.src_thread ||
        part.threadOf(arc.dst) != pd.dst_thread)
        return false;
    if (pd.kind == CommKind::RegisterData)
        return arc.kind == DepKind::Register && arc.reg == pd.reg;
    return arc.kind == DepKind::Memory;
}

Feedback
deriveFeedback(const AutotuneInputs &in, const AutotuneSchedule &cur,
               const StallReport &report)
{
    const Function &f = *in.f;
    Feedback fb;
    fb.block_boost.assign(static_cast<size_t>(f.numBlocks()), 0);
    fb.arc_boost.assign(
        static_cast<size_t>(in.pdg->numArcs()), 0);

    for (const BlockAttribution &b : report.blocks)
        if (b.block >= 0 && b.block < f.numBlocks())
            fb.block_boost[static_cast<size_t>(b.block)] +=
                b.prof.total();

    fb.cut_boost = fb.block_boost;
    const auto &arcs = in.pdg->arcs();
    for (const QueueAttribution &q : report.queues) {
        uint64_t stall = q.prof.stallCycles();
        if (stall == 0)
            continue;
        for (const PlacementDesc &pd : q.placements) {
            for (size_t a = 0; a < arcs.size(); ++a)
                if (arcMatchesPlacement(arcs[a], pd, cur.partition))
                    fb.arc_boost[a] += stall;
            // Charge the stalled queue's current placement points:
            // the re-cut then prefers moving them elsewhere.
            if (pd.placement >= 0 &&
                pd.placement <
                    static_cast<int>(cur.plan.placements.size())) {
                const CommPlacement &pl =
                    cur.plan.placements[static_cast<size_t>(
                        pd.placement)];
                // Each distinct block once per (queue, placement).
                std::vector<BlockId> seen;
                for (const ProgramPoint &pt : pl.points) {
                    if (std::find(seen.begin(), seen.end(),
                                  pt.block) != seen.end())
                        continue;
                    seen.push_back(pt.block);
                    fb.cut_boost[static_cast<size_t>(pt.block)] +=
                        stall;
                }
            }
        }
    }
    return fb;
}

/** Profile-weighted dynamic cycles of the stalled queues, rendered
 *  deterministically for move details. */
std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

ThreadPartition
repartition(const AutotuneInputs &in, const PartitionFeedback &fb)
{
    if (in.gremio) {
        GremioOptions o;
        o.num_threads = in.num_threads;
        o.feedback = &fb;
        return gremioPartition(*in.pdg, *in.profile, o);
    }
    DswpOptions o;
    o.num_threads = in.num_threads;
    o.feedback = &fb;
    return dswpPartition(*in.pdg, *in.profile, o);
}

/** COCO (or default MTCG) plan for a candidate partition. */
bool
planFor(const AutotuneInputs &in, const ThreadPartition &part,
        const EdgeProfile &profile, CommPlan &plan, int &iters,
        std::string &reject)
{
    if (!in.use_coco) {
        plan = defaultMtcgPlan(*in.f, *in.pdg, part, *in.cd);
        iters = 0;
    } else {
        CocoExec exec;
        exec.pool = in.pool;
        exec.jobs = in.coco_jobs;
        CocoResult res = cocoOptimize(*in.f, *in.pdg, part, *in.cd,
                                      profile, in.coco, exec);
        plan = std::move(res.plan);
        iters = res.iterations;
    }
    auto problems = validatePlan(*in.f, *in.pdg, part, *in.cd, plan);
    if (!problems.empty()) {
        reject = "invalid-plan";
        return false;
    }
    return true;
}

/** Generate this round's candidates, canonical order: recut, then
 *  reweight, then migrations by stall rank. */
std::vector<Candidate>
generateCandidates(const AutotuneInputs &in, const Working &cur,
                   const StallReport &report, const Feedback &fb,
                   const SccResult &sccs,
                   std::vector<std::vector<int>> &tried_partitions,
                   const AutotuneOptions &opts,
                   std::vector<AutotuneMove> &invalid_moves,
                   int iteration)
{
    std::vector<Candidate> out;
    uint64_t total_stall = report.totalStallCycles();

    auto boosted = [&](const std::vector<uint64_t> &boost) {
        return in.profile->withBlockBoost(boost);
    };

    // Reweight/migrate candidates always plan under the base profile,
    // so a partition we already planned once would reproduce the same
    // plan — skip it before paying for the cut solve and the
    // simulation. (Re-cuts plan under this round's stall boost and
    // are never skipped this way.) This is the bulk of the warm-round
    // saving: steady-state rounds regenerate mostly-seen partitions.
    auto seen_partition = [&](const std::vector<int> &assign) {
        return std::find(tried_partitions.begin(),
                         tried_partitions.end(),
                         assign) != tried_partitions.end();
    };

    // 1. Re-cut: same partition, stall-boosted cut costs.
    if (in.use_coco) {
        Candidate c;
        c.kind = "recut";
        c.detail = "stall-boosted re-cut (total stall " +
                   u64(total_stall) + ")";
        c.stall = total_stall;
        c.partition = cur.s.partition;
        EdgeProfile prof = boosted(fb.cut_boost);
        std::string reject;
        if (planFor(in, c.partition, prof, c.plan, c.plan_iters,
                    reject)) {
            out.push_back(std::move(c));
        } else {
            AutotuneMove m;
            m.iteration = iteration;
            m.kind = c.kind;
            m.detail = c.detail;
            m.stall_cycles = c.stall;
            m.rejected_because = reject;
            invalid_moves.push_back(std::move(m));
        }
    }

    // 2. Re-weight: feed the boosts to the partitioner, then re-place
    //    from scratch.
    {
        PartitionFeedback pf{fb.block_boost, fb.arc_boost};
        Candidate c;
        c.kind = "reweight";
        c.detail = "feedback re-partition (total stall " +
                   u64(total_stall) + ")";
        c.stall = total_stall;
        c.partition = repartition(in, pf);
        auto problems = validatePartition(*in.pdg, c.partition,
                                          /*require_pipeline=*/!in.gremio);
        std::string reject;
        if (!problems.empty()) {
            reject = "invalid-partition";
        } else if (c.partition.assign == cur.s.partition.assign) {
            reject = "no-change";
        } else if (seen_partition(c.partition.assign)) {
            reject = "duplicate";
        } else {
            tried_partitions.push_back(c.partition.assign);
            if (planFor(in, c.partition, *in.profile, c.plan,
                        c.plan_iters, reject))
                out.push_back(std::move(c));
        }
        if (!reject.empty()) {
            AutotuneMove m;
            m.iteration = iteration;
            m.kind = "reweight";
            m.detail = c.detail;
            m.stall_cycles = c.stall;
            m.rejected_because = reject;
            invalid_moves.push_back(std::move(m));
        }
    }

    // 3. Migrations: boundary units (PDG SCCs) on the costliest
    //    queues move between the pair's threads. report.queues is
    //    already sorted by stall descending with deterministic ties.
    // Only queues whose stall evidence is worth acting on seed
    // migrations. Every round requires the queue's charged stall to
    // clear the epsilon acceptance threshold (weaker evidence cannot
    // justify a move that would be accepted anyway). Rounds after the
    // first additionally require a material share of the round's
    // total stall: once an accepted move drains the dominant queues,
    // the residue flattens across many small queues, and simulating a
    // migration for each of them is what would make steady-state
    // rounds as expensive as the cold first round. The first round
    // keeps the widest net — it sees the baseline's concentrated
    // stalls and is where most accepts happen.
    const uint64_t min_gain = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(
               static_cast<double>(cur.s.cycles) *
               opts.min_rel_improvement)));
    const uint64_t min_queue_stall =
        iteration == 1 ? min_gain
                       : std::max(min_gain, (total_stall + 9) / 10);
    int queues_used = 0;
    std::vector<std::pair<int, int>> tried_moves; // (unit, to)
    int migrations = 0;
    for (const QueueAttribution &q : report.queues) {
        if (queues_used >= opts.migrate_top_queues ||
            migrations >= opts.migrate_max_candidates)
            break;
        uint64_t stall = q.prof.stallCycles();
        if (stall < min_queue_stall)
            break;
        ++queues_used;
        const auto &arcs = in.pdg->arcs();
        for (const PlacementDesc &pd : q.placements) {
            for (size_t a = 0; a < arcs.size(); ++a) {
                if (!arcMatchesPlacement(arcs[a], pd, cur.s.partition))
                    continue;
                const std::pair<int, int> ends[2] = {
                    {sccs.component[arcs[a].src], pd.dst_thread},
                    {sccs.component[arcs[a].dst], pd.src_thread}};
                for (const auto &[unit, to] : ends) {
                    if (migrations >= opts.migrate_max_candidates)
                        break;
                    if (std::find(tried_moves.begin(),
                                  tried_moves.end(),
                                  std::make_pair(unit, to)) !=
                        tried_moves.end())
                        continue;
                    tried_moves.emplace_back(unit, to);

                    ThreadPartition p = cur.s.partition;
                    for (NodeId i :
                         sccs.members[static_cast<size_t>(unit)])
                        p.assign[i] = to;
                    if (p.assign == cur.s.partition.assign)
                        continue;

                    Candidate c;
                    c.kind = "migrate";
                    c.detail = "unit " + std::to_string(unit) +
                               " -> thread " + std::to_string(to) +
                               " (queue " + std::to_string(q.queue) +
                               " stall " + u64(stall) + ")";
                    c.queue = q.queue;
                    c.stall = stall;
                    c.partition = std::move(p);
                    ++migrations;

                    std::string reject;
                    if (seen_partition(c.partition.assign))
                        reject = "duplicate";
                    auto problems =
                        reject.empty()
                            ? validatePartition(
                                  *in.pdg, c.partition,
                                  /*require_pipeline=*/!in.gremio)
                            : std::vector<std::string>{};
                    if (!problems.empty()) {
                        reject = "invalid-partition";
                    } else if (reject.empty()) {
                        // An emptied thread produces a degenerate
                        // program; never propose one.
                        std::vector<int> count(
                            static_cast<size_t>(
                                c.partition.num_threads),
                            0);
                        for (int t : c.partition.assign)
                            ++count[static_cast<size_t>(t)];
                        for (int n : count)
                            if (n == 0)
                                reject = "empties-thread";
                    }
                    if (reject.empty()) {
                        tried_partitions.push_back(c.partition.assign);
                        if (planFor(in, c.partition, *in.profile,
                                    c.plan, c.plan_iters, reject))
                            out.push_back(std::move(c));
                    }
                    if (!reject.empty()) {
                        AutotuneMove m;
                        m.iteration = iteration;
                        m.kind = "migrate";
                        m.detail = c.detail;
                        m.queue = c.queue;
                        m.stall_cycles = c.stall;
                        m.rejected_because = reject;
                        invalid_moves.push_back(std::move(m));
                    }
                }
            }
        }
    }
    return out;
}

/** Codegen + static verification + timing simulation of a candidate;
 *  the simulation is its oracle and counter. Returns false with a
 *  reject reason instead of dying: a candidate the verifier rejects is
 *  simply not taken (one whose output mismatches is fatal). */
bool
evalCandidate(const AutotuneInputs &in, const Candidate &c,
              Working &out, std::string &reject)
{
    MtcgOptions mo;
    mo.queue_capacity = in.queue_capacity;
    mo.max_queues = 0;
    out.s.partition = c.partition;
    out.s.plan = c.plan;
    out.s.plan_coco_iterations = c.plan_iters;
    out.s.prog =
        runMtcg(*in.f, *in.pdg, c.partition, c.plan, *in.cd, mo);
    out.s.queue_of.resize(c.plan.placements.size());
    for (size_t i = 0; i < out.s.queue_of.size(); ++i)
        out.s.queue_of[i] = static_cast<int>(i);
    if (in.max_queues > 0) {
        QueueAllocation alloc =
            allocateQueues(c.plan, in.max_queues);
        for (Function &tf : out.s.prog.threads) {
            for (InstrId i = 0; i < tf.numInstrs(); ++i) {
                Instr &ins = tf.instr(i);
                if (isCommunication(ins.op))
                    ins.queue = alloc.queue_of[ins.queue];
            }
        }
        out.s.prog.num_queues = alloc.num_queues;
        out.s.queue_of = alloc.queue_of;
    }

    // Every intermediate schedule must pass the static verifier (HB
    // race check included); a failing candidate is rejected, never
    // executed.
    MtVerifyInput vin;
    vin.orig = in.f;
    vin.pdg = in.pdg;
    vin.partition = &out.s.partition;
    vin.plan = &out.s.plan;
    vin.queue_of = &out.s.queue_of;
    vin.prog = &out.s.prog;
    vin.check_hb = true;
    MtVerifyResult vres = verifyMtProgram(vin);
    if (!vres.ok()) {
        reject = "verify-failed";
        return false;
    }

    out.decoded = decodeProgram(out.s.prog);
    out.s.cycles =
        simulateChecked(in, out, nullptr, c.kind + " candidate").cycles;
    return true;
}

/** Instrumented, checked re-simulation of the current schedule ->
 *  StallReport for the next feedback round (and @p w's counts). */
StallReport
profileSchedule(const AutotuneInputs &in, Working &w)
{
    SimProfile profile;
    SimResult r = simulateChecked(in, w, &profile, "profile run");
    GMT_ASSERT(r.cycles == w.s.cycles,
               "autotune instrumented rerun diverged");
    std::string violation =
        checkStallConservation(profile, stallTotals(r));
    if (!violation.empty())
        panic("autotune stall attribution broke conservation: ",
              violation);
    return buildStallReport(profile, r.cycles, w.s.plan, w.s.queue_of,
                            w.s.prog);
}

int
countMovedInstrs(const ThreadPartition &a, const ThreadPartition &b)
{
    int n = 0;
    for (size_t i = 0; i < a.assign.size() && i < b.assign.size(); ++i)
        if (a.assign[i] != b.assign[i])
            ++n;
    return n;
}

} // namespace

AutotuneResult
autotuneSchedule(const AutotuneInputs &in,
                 const AutotuneSchedule &baseline,
                 const AutotuneOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    GMT_ASSERT(in.f && in.pdg && in.cd && in.profile && in.ref_args &&
                   in.st_live_outs && in.st_final_mem &&
                   in.make_memory,
               "autotuneSchedule: incomplete inputs");

    AutotuneResult result;
    result.baseline_cycles = baseline.cycles;
    result.trajectory.push_back(baseline.cycles);

    // One-time setup below (baseline decode, SCC units) is charged to
    // the first iteration's wall clock: the cold round pays it, the
    // warm rounds reuse it.
    const auto setup_t0 = Clock::now();

    Working cur;
    cur.s = baseline;
    cur.decoded = decodeProgram(cur.s.prog);

    // PDG SCCs: the atomic migration units (a split SCC would create
    // a cross-thread dependence cycle).
    Digraph g = in.pdg->asDigraph();
    SccResult sccs = computeSccs(g);

    // Schedules already evaluated (or held): duplicates are recorded
    // but neither re-generated code for nor re-simulated, which is a
    // large share of the warm-iteration speedup.
    std::vector<std::pair<std::vector<int>, CommPlan>> tried;
    tried.emplace_back(baseline.partition.assign, baseline.plan);

    // Partitions whose base-profile plan was already solved once
    // (baseline included: passPlacement planned it under the base
    // profile) — reweight/migrate candidates reproducing one of these
    // are skipped before the cut solve.
    std::vector<std::vector<int>> tried_partitions;
    tried_partitions.push_back(baseline.partition.assign);

    // The stall report feeding each round. Round 1's comes from
    // profiling the baseline (charged to round 1), and that run also
    // counts the baseline's instructions. An accepting round profiles
    // its new schedule before closing (the profile is part of folding
    // the accepted move's feedback, so its cost is charged to the
    // round that accepted), and the next round starts from it without
    // re-simulating.
    StallReport report = profileSchedule(in, cur);

    for (int it = 1; it <= opts.max_iterations; ++it) {
        auto t0 = it == 1 ? setup_t0 : Clock::now();
        result.iterations = it;

        if (report.totalStallCycles() == 0) {
            result.converged = true;
            result.iter_wall_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            break;
        }

        Feedback fb = deriveFeedback(in, cur.s, report);
        std::vector<AutotuneMove> invalid;
        std::vector<Candidate> cands = generateCandidates(
            in, cur, report, fb, sccs, tried_partitions, opts, invalid,
            it);

        // Invalid candidates (never simulated) are recorded first —
        // their order within the round is canonical too.
        for (AutotuneMove &m : invalid) {
            ++result.moves_rejected;
            result.moves.push_back(std::move(m));
        }

        // Acceptance threshold: relative epsilon on current cycles,
        // at least one cycle (strict improvement).
        const uint64_t min_gain = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::ceil(
                   static_cast<double>(cur.s.cycles) *
                   opts.min_rel_improvement)));

        std::vector<Working> evals(cands.size());
        std::vector<size_t> move_of(cands.size());
        int best = -1;
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            const Candidate &c = cands[ci];
            AutotuneMove m;
            m.iteration = it;
            m.kind = c.kind;
            m.detail = c.detail;
            m.queue = c.queue;
            m.stall_cycles = c.stall;
            m.moved_instrs =
                countMovedInstrs(cur.s.partition, c.partition);

            auto fp = std::make_pair(c.partition.assign, c.plan);
            if (std::find(tried.begin(), tried.end(), fp) !=
                tried.end()) {
                m.rejected_because = "duplicate";
            } else {
                tried.push_back(std::move(fp));
                std::string reject;
                if (!evalCandidate(in, c, evals[ci], reject)) {
                    m.rejected_because = reject;
                } else {
                    m.cycles = evals[ci].s.cycles;
                    if (m.cycles >= cur.s.cycles) {
                        m.rejected_because = "no-improvement";
                    } else if (cur.s.cycles - m.cycles < min_gain) {
                        m.rejected_because = "below-epsilon";
                    } else if (best < 0 ||
                               m.cycles <
                                   evals[static_cast<size_t>(best)]
                                       .s.cycles) {
                        best = static_cast<int>(ci);
                    }
                }
            }
            move_of[ci] = result.moves.size();
            result.moves.push_back(std::move(m));
        }

        if (best < 0) {
            for (size_t ci = 0; ci < cands.size(); ++ci)
                if (result.moves[move_of[ci]].rejected_because.empty())
                    result.moves[move_of[ci]].rejected_because =
                        "outscored";
            result.moves_rejected += static_cast<int>(cands.size());
            result.converged = true;
            result.iter_wall_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            break;
        }

        // Accept the winner; every other candidate of the round is
        // rejected (qualifying ones as "outscored").
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            AutotuneMove &m = result.moves[move_of[ci]];
            if (static_cast<int>(ci) == best) {
                m.accepted = true;
                ++result.moves_accepted;
            } else {
                if (m.rejected_because.empty())
                    m.rejected_because = "outscored";
                ++result.moves_rejected;
            }
        }

        cur = std::move(evals[static_cast<size_t>(best)]);
        result.final_block_boost =
            cands[static_cast<size_t>(best)].kind == "recut"
                ? fb.cut_boost
                : std::vector<uint64_t>{};

        if (opts.on_accept)
            opts.on_accept(cur.s);
        result.trajectory.push_back(cur.s.cycles);
        if (it < opts.max_iterations)
            report = profileSchedule(in, cur);
        result.iter_wall_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count());
    }

    // The final schedule's counts, from its checked simulation (the
    // round-1 profile run when no move was accepted).
    for (const ThreadStats &st : cur.counts) {
        result.computation += st.computation;
        result.duplicated_branches += st.duplicated_branches;
        result.reg_comm += st.produces + st.consumes;
        result.mem_sync += st.produce_syncs + st.consume_syncs;
    }
    result.final_schedule = std::move(cur.s);

    MetricsRegistry &mr = MetricsRegistry::global();
    mr.counter("autotune.iterations")
        .add(static_cast<uint64_t>(result.iterations));
    mr.counter("autotune.moves_accepted")
        .add(static_cast<uint64_t>(result.moves_accepted));
    mr.counter("autotune.moves_rejected")
        .add(static_cast<uint64_t>(result.moves_rejected));
    return result;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::string
autotuneMovesJson(const AutotuneResult &r)
{
    std::ostringstream os;
    os << "{\"schema\":1,\"type\":\"autotune\"";
    os << ",\"baseline_cycles\":" << r.baseline_cycles;
    os << ",\"final_cycles\":" << r.final_schedule.cycles;
    os << ",\"iterations\":" << r.iterations;
    os << ",\"converged\":" << (r.converged ? "true" : "false");
    os << ",\"moves_accepted\":" << r.moves_accepted;
    os << ",\"moves_rejected\":" << r.moves_rejected;
    os << ",\"trajectory\":[";
    for (size_t i = 0; i < r.trajectory.size(); ++i)
        os << (i ? "," : "") << r.trajectory[i];
    os << "],\"moves\":[";
    for (size_t i = 0; i < r.moves.size(); ++i) {
        const AutotuneMove &m = r.moves[i];
        if (i)
            os << ",";
        os << "{\"iteration\":" << m.iteration << ",\"kind\":\""
           << jsonEscape(m.kind) << "\",\"detail\":\""
           << jsonEscape(m.detail) << "\",\"queue\":" << m.queue
           << ",\"stall_cycles\":" << m.stall_cycles
           << ",\"moved_instrs\":" << m.moved_instrs
           << ",\"cycles\":" << m.cycles << ",\"accepted\":"
           << (m.accepted ? "true" : "false")
           << ",\"rejected_because\":\""
           << jsonEscape(m.rejected_because) << "\"}";
    }
    os << "]}";
    return os.str();
}

Provenance
autotuneProvenance(const AutotuneInputs &in, const AutotuneResult &r,
                   const std::string &cell,
                   const std::string &workload,
                   const std::string &scheduler)
{
    const AutotuneSchedule &s = r.final_schedule;
    Provenance p;
    p.cell = cell;
    p.workload = workload;
    p.scheduler = scheduler;
    p.coco = in.use_coco;
    p.num_threads = in.num_threads;

    // Partition units: the tuned assignment is SCC-atomic by
    // construction (partitioners keep SCCs whole; migrations move
    // whole SCCs), so the PDG's components are the honest unit
    // structure of the final partition.
    Digraph g = in.pdg->asDigraph();
    SccResult sccs = computeSccs(g);
    p.partition.algorithm = scheduler + "+autotune";
    p.partition.num_threads = in.num_threads;
    p.partition.unit_of.assign(sccs.component.begin(),
                               sccs.component.end());
    p.partition.thread_of.assign(s.partition.assign.begin(),
                                 s.partition.assign.end());
    p.partition.units.resize(
        static_cast<size_t>(sccs.numComponents()));
    for (int c = 0; c < sccs.numComponents(); ++c) {
        UnitDecision &d =
            p.partition.units[static_cast<size_t>(c)];
        d.unit = c;
        d.order = c;
        d.thread = -1;
        d.first_instr = -1;
    }
    for (InstrId i = 0; i < in.f->numInstrs(); ++i) {
        UnitDecision &d = p.partition.units[static_cast<size_t>(
            sccs.component[i])];
        int t = s.partition.threadOf(i);
        GMT_ASSERT(d.thread == -1 || d.thread == t,
                   "autotune partition splits an SCC for ", cell);
        d.thread = t;
        d.work += in.profile->blockWeight(in.f->instr(i).block);
        ++d.num_members;
        if (d.first_instr < 0)
            d.first_instr = i;
    }

    // Placement decisions: re-derive the final plan with the serial
    // instrumented COCO run under the final boost, asserted equal.
    if (in.use_coco) {
        EdgeProfile prof =
            r.final_block_boost.empty()
                ? *in.profile
                : in.profile->withBlockBoost(r.final_block_boost);
        CocoExec exec;
        exec.provenance = &p.placement;
        CocoResult coco = cocoOptimize(*in.f, *in.pdg, s.partition,
                                       *in.cd, prof, in.coco, exec);
        GMT_ASSERT(coco.plan == s.plan,
                   "autotune provenance placement rerun diverged for ",
                   cell);
    } else {
        p.placement.source = "mtcg-default";
        for (size_t i = 0; i < s.plan.placements.size(); ++i) {
            const CommPlacement &pl = s.plan.placements[i];
            PlacementDecision d;
            d.index = static_cast<int>(i);
            d.is_mem = pl.kind == CommKind::MemorySync;
            d.reg = pl.reg;
            d.src_thread = pl.src_thread;
            d.dst_thread = pl.dst_thread;
            d.rule = "mtcg-default";
            for (const auto &pt : pl.points)
                d.points.push_back(
                    {pt.block, pt.pos,
                     static_cast<int64_t>(
                         in.profile->pointWeight(pt)),
                     0});
            p.placement.placements.push_back(std::move(d));
        }
    }

    // Queue decisions (same derivation as the obs-provenance pass).
    if (in.max_queues <= 0) {
        p.queues.max_queues = 0;
        p.queues.num_queues = s.prog.num_queues;
        for (size_t i = 0; i < s.queue_of.size(); ++i) {
            const CommPlacement &pl = s.plan.placements[i];
            QueueDecision d;
            d.queue = s.queue_of[i];
            d.src_thread = pl.src_thread;
            d.dst_thread = pl.dst_thread;
            d.rule = "identity";
            d.pair_placements = 1;
            d.pair_queues = 1;
            d.placements.push_back(static_cast<int>(i));
            p.queues.queues.push_back(std::move(d));
        }
    } else {
        QueueAllocation alloc =
            allocateQueues(s.plan, in.max_queues, &p.queues);
        GMT_ASSERT(alloc.queue_of == s.queue_of,
                   "autotune provenance queue rerun diverged for ",
                   cell);
    }
    return p;
}

} // namespace gmt
