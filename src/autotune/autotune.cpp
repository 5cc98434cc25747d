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
#include "obs/stall_profile.hpp"
#include "obs/stall_report.hpp"
#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

namespace
{

/** Internal working state: the public schedule plus the per-core
 *  counts of its checked simulation. */
struct Working
{
    AutotuneSchedule s;
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
    SimResult r = sim.run(w.s.prog, *in.ref_args, mem);
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
    PlacementProvenance plan_prov; ///< record of the call behind plan
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

/** COCO (or default MTCG) plan for @p c's partition, with its
 *  record. COCO's cut-cache counts go onto @p result. */
bool
planFor(const AutotuneInputs &in, Candidate &c,
        const EdgeProfile &profile, std::string &reject,
        AutotuneResult &result)
{
    if (!in.use_coco) {
        c.plan = defaultMtcgPlan(*in.f, *in.pdg, c.partition, *in.cd);
        c.plan_iters = 0;
        c.plan_prov = defaultPlanProvenance(c.plan, profile);
    } else {
        CocoExec exec;
        exec.pool = in.pool;
        exec.jobs = in.coco_jobs;
        CocoResult res = cocoOptimize(*in.f, *in.pdg, c.partition,
                                      *in.cd, profile, in.coco, exec);
        c.plan = std::move(res.plan);
        c.plan_iters = res.iterations;
        c.plan_prov = std::move(res.provenance);
        result.coco_warm_starts += res.warm_starts;
        result.coco_cold_rebuilds += res.cold_rebuilds;
    }
    auto problems =
        validatePlan(*in.f, *in.pdg, c.partition, *in.cd, c.plan);
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
                   int iteration, AutotuneResult &result)
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
        if (planFor(in, c, prof, reject, result)) {
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
            if (planFor(in, c, *in.profile, reject, result))
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
                        if (planFor(in, c, *in.profile, reject,
                                    result))
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
    out.s.plan_prov = c.plan_prov;
    out.s.prog =
        runMtcg(*in.f, *in.pdg, c.partition, c.plan, *in.cd, mo);
    out.s.queue_of = assignQueues(c.plan, in.max_queues, out.s.prog,
                                  out.s.queue_prov);

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

/** Decision record of a tuned partition: one unit per PDG SCC. The
 *  assignment is SCC-atomic by construction (the partitioners keep
 *  SCCs whole and migrations move whole SCCs), so the components are
 *  the honest unit structure of any partition the loop holds. */
PartitionProvenance
sccPartitionProvenance(const AutotuneInputs &in, const SccResult &sccs,
                       const ThreadPartition &part)
{
    PartitionProvenance p;
    p.algorithm = std::string(in.gremio ? "GREMIO" : "DSWP") +
                  "+autotune";
    p.num_threads = in.num_threads;
    p.unit_of.assign(sccs.component.begin(), sccs.component.end());
    p.thread_of.assign(part.assign.begin(), part.assign.end());
    p.units.resize(static_cast<size_t>(sccs.numComponents()));
    for (int c = 0; c < sccs.numComponents(); ++c) {
        UnitDecision &d = p.units[static_cast<size_t>(c)];
        d.unit = c;
        d.order = c;
        d.thread = -1;
    }
    for (InstrId i = 0; i < in.f->numInstrs(); ++i) {
        UnitDecision &d =
            p.units[static_cast<size_t>(sccs.component[i])];
        int t = part.threadOf(i);
        GMT_ASSERT(d.thread == -1 || d.thread == t,
                   "autotune partition splits an SCC for ", in.cell);
        d.thread = t;
        d.work += in.profile->blockWeight(in.f->instr(i).block);
        ++d.num_members;
        if (d.first_instr < 0)
            d.first_instr = i;
    }
    return p;
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

    // One-time setup below (SCC units) is charged to the first
    // iteration's wall clock: the cold round pays it, the warm rounds
    // reuse it.
    const auto setup_t0 = Clock::now();

    Working cur;
    cur.s = baseline;

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
            it, result);

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
    result.partition_prov =
        sccPartitionProvenance(in, sccs, result.final_schedule.partition);
    return result;
}

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

} // namespace gmt
