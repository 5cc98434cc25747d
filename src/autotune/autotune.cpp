#include "autotune/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "graph/scc.hpp"
#include "mtcg/mtcg.hpp"
#include "mtverify/mtverify.hpp"
#include "obs/stall_profile.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

namespace
{

/** Hard cap on feedback rounds. */
constexpr int kMaxIterations = 8;

/** Convergence gate: a candidate is accepted only when it improves
 *  simulated cycles by at least this relative fraction (and at least
 *  one cycle); otherwise the loop has converged. */
constexpr double kMinRelImprovement = 1e-4;

/** Stall-ranked queues considered for boundary migration. */
constexpr int kMigrateTopQueues = 3;

/** Cap on migration candidates per round. */
constexpr int kMigrateMaxCandidates = 8;

/** Internal working state: the public schedule plus its checked
 *  simulation, whose per-core counts are the schedule's. */
struct Working
{
    AutotuneSchedule s;
    SimResult run;
};

/** Stall evidence of one feedback round, all additive cycle charges. */
struct Feedback
{
    /** For the partitioners: block stall charges (BlockAttribution)
     *  and queue stalls mapped to the PDG arcs each queue carries. */
    PartitionFeedback partition;

    /** partition.block_boost plus queue stalls charged to the blocks
     *  holding the stalled queue's current placement points — the cut
     *  costs a re-cut solves under (pushes min cuts away from both
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
    Placement placement;
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
    fb.partition.block_boost.assign(static_cast<size_t>(f.numBlocks()), 0);
    fb.partition.arc_boost.assign(
        static_cast<size_t>(in.pdg->numArcs()), 0);

    for (const BlockAttribution &b : report.blocks)
        if (b.block >= 0 && b.block < f.numBlocks())
            fb.partition.block_boost[static_cast<size_t>(b.block)] +=
                b.prof.total();

    fb.cut_boost = fb.partition.block_boost;
    const auto &arcs = in.pdg->arcs();
    for (const QueueAttribution &q : report.queues) {
        uint64_t stall = q.prof.stallCycles();
        if (stall == 0)
            continue;
        for (const PlacementDesc &pd : q.placements) {
            for (size_t a = 0; a < arcs.size(); ++a)
                if (arcMatchesPlacement(arcs[a], pd, cur.partition))
                    fb.partition.arc_boost[a] += stall;
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

/** Generate this round's candidates, canonical order: recut, then
 *  reweight, then migrations by stall rank. @p min_gain is the
 *  round's acceptance gate in cycles. */
std::vector<Candidate>
generateCandidates(const AutotuneInputs &in, const Working &cur,
                   const StallReport &report, const Feedback &fb,
                   const SccResult &sccs,
                   std::vector<std::vector<int>> &tried_partitions,
                   uint64_t min_gain,
                   std::vector<AutotuneMove> &invalid_moves,
                   int iteration, AutotuneResult &result)
{
    std::vector<Candidate> out;
    uint64_t total_stall = report.totalStallCycles();

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

    // Propose @p c unless @p reject already names why not: place its
    // communication under @p prof (the pipeline's placement step; a
    // plan validatePlan faults is "invalid-plan"). A candidate that
    // fails is recorded as a rejected move, never simulated.
    auto offer = [&](Candidate &c, const EdgeProfile &prof,
                     std::string reject) {
        if (reject.empty()) {
            c.placement = placeCommunication(
                *in.f, *in.pdg, c.partition, *in.cd, prof,
                in.use_coco ? &in.coco : nullptr,
                CocoExec{in.pool, in.coco_jobs, nullptr});
            result.coco_warm_starts += c.placement.warm_starts;
            result.coco_cold_rebuilds += c.placement.cold_rebuilds;
            if (c.placement.problems.empty()) {
                out.push_back(std::move(c));
                return;
            }
            reject = "invalid-plan";
        }
        invalid_moves.push_back({.iteration = iteration,
                                 .kind = c.kind,
                                 .detail = c.detail,
                                 .queue = c.queue,
                                 .stall_cycles = c.stall,
                                 .rejected_because = std::move(reject)});
    };

    // 1. Re-cut: same partition, stall-boosted cut costs.
    if (in.use_coco) {
        Candidate c;
        c.kind = "recut";
        c.detail = "stall-boosted re-cut (total stall " +
                   std::to_string(total_stall) + ")";
        c.stall = total_stall;
        c.partition = cur.s.partition;
        offer(c, in.profile->withBlockBoost(fb.cut_boost), "");
    }

    // 2. Re-weight: feed the boosts to the partitioner, then re-place
    //    from scratch.
    {
        Candidate c;
        c.kind = "reweight";
        c.detail = "feedback re-partition (total stall " +
                   std::to_string(total_stall) + ")";
        c.stall = total_stall;
        c.partition = runPartitioner(*in.pdg, *in.profile, in.gremio,
                                     in.num_threads, &fb.partition,
                                     nullptr);
        std::string reject;
        if (!validatePartition(*in.pdg, c.partition,
                               /*require_pipeline=*/!in.gremio)
                 .empty())
            reject = "invalid-partition";
        else if (c.partition.assign == cur.s.partition.assign)
            reject = "no-change";
        else if (seen_partition(c.partition.assign))
            reject = "duplicate";
        else
            tried_partitions.push_back(c.partition.assign);
        offer(c, *in.profile, reject);
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
    const uint64_t min_queue_stall =
        iteration == 1 ? min_gain
                       : std::max(min_gain, (total_stall + 9) / 10);
    int queues_used = 0;
    std::vector<std::pair<int, int>> tried_moves; // (unit, to)
    int migrations = 0;
    for (const QueueAttribution &q : report.queues) {
        if (queues_used >= kMigrateTopQueues ||
            migrations >= kMigrateMaxCandidates)
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
                    if (migrations >= kMigrateMaxCandidates)
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
                               " stall " + std::to_string(stall) + ")";
                    c.queue = q.queue;
                    c.stall = stall;
                    c.partition = std::move(p);
                    ++migrations;

                    // An emptied thread produces a degenerate
                    // program; never propose one.
                    std::vector<int> count(
                        static_cast<size_t>(c.partition.num_threads), 0);
                    for (int t : c.partition.assign)
                        ++count[static_cast<size_t>(t)];
                    std::string reject;
                    if (seen_partition(c.partition.assign))
                        reject = "duplicate";
                    else if (!validatePartition(
                                  *in.pdg, c.partition,
                                  /*require_pipeline=*/!in.gremio)
                                  .empty())
                        reject = "invalid-partition";
                    else if (std::count(count.begin(), count.end(), 0))
                        reject = "empties-thread";
                    else
                        tried_partitions.push_back(c.partition.assign);
                    offer(c, *in.profile, reject);
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
evalCandidate(const AutotuneInputs &in, const SimCheck &chk,
              const Candidate &c, Working &out, std::string &reject)
{
    out.s.partition = c.partition;
    out.s.plan = c.placement.plan;
    out.s.plan_coco_iterations = c.placement.coco_iterations;
    out.s.plan_prov = c.placement.prov;
    out.s.queue_of = generateMtProgram(
        *in.f, *in.pdg, c.partition, c.placement.plan, *in.cd,
        in.queue_capacity, in.max_queues, out.s.prog, out.s.queue_prov);

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

    out.run = simulateChecked(chk, decodeProgram(out.s.prog), "MT",
                              in.cell + ", autotune " + c.kind +
                                  " candidate");
    out.s.cycles = out.run.cycles;
    return true;
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

StallReport
profileChecked(const SimCheck &chk, const MtProgram &prog,
               const CommPlan &plan, const std::vector<int> &queue_of,
               uint64_t cycles, const std::string &cell,
               TimelineBuilder *timeline, SimResult *run)
{
    SimProfile profile;
    SimResult r = simulateChecked(chk, decodeProgram(prog), "MT", cell,
                                  &profile, timeline);
    GMT_ASSERT(r.cycles == cycles, "instrumented rerun diverged for ",
               cell);
    std::string violation = checkStallConservation(profile, stallTotals(r));
    if (!violation.empty())
        panic("stall attribution broke conservation for ", cell, " (",
              simEngineName(chk.engine), " engine): ", violation);
    if (run)
        *run = r;
    return buildStallReport(profile, r.cycles, plan, queue_of, prog);
}

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
    const SimCheck chk{in.machine,    in.engine,          in.ref_args,
                       in.make_memory, in.st_live_outs, in.st_final_mem};
    const std::string profile_run = in.cell + ", autotune profile run";
    StallReport report =
        profileChecked(chk, cur.s.prog, cur.s.plan, cur.s.queue_of,
                       cur.s.cycles, profile_run, nullptr, &cur.run);

    for (int it = 1; it <= kMaxIterations; ++it) {
        auto t0 = it == 1 ? setup_t0 : Clock::now();
        auto closeRound = [&] {
            result.iter_wall_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count());
        };
        result.iterations = it;

        if (report.totalStallCycles() == 0) {
            result.converged = true;
            closeRound();
            break;
        }

        // Acceptance gate: relative epsilon on current cycles, at
        // least one cycle (strict improvement). Migrations reuse it as
        // their evidence threshold.
        const uint64_t min_gain = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::ceil(static_cast<double>(cur.s.cycles) *
                             kMinRelImprovement)));

        Feedback fb = deriveFeedback(in, cur.s, report);
        std::vector<AutotuneMove> invalid;
        std::vector<Candidate> cands = generateCandidates(
            in, cur, report, fb, sccs, tried_partitions, min_gain,
            invalid, it, result);

        // Invalid candidates (never simulated) are recorded first —
        // their order within the round is canonical too.
        for (AutotuneMove &m : invalid) {
            ++result.moves_rejected;
            result.moves.push_back(std::move(m));
        }

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

            auto fp =
                std::make_pair(c.partition.assign, c.placement.plan);
            if (std::find(tried.begin(), tried.end(), fp) !=
                tried.end()) {
                m.rejected_because = "duplicate";
            } else {
                tried.push_back(std::move(fp));
                std::string reject;
                if (!evalCandidate(in, chk, c, evals[ci], reject)) {
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

        // Accept the winner, if any; every other candidate of the
        // round is rejected (qualifying ones as "outscored").
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
        if (best < 0) {
            result.converged = true;
            closeRound();
            break;
        }

        cur = std::move(evals[static_cast<size_t>(best)]);

        if (opts.on_accept)
            opts.on_accept(cur.s);
        result.trajectory.push_back(cur.s.cycles);
        if (it < kMaxIterations)
            report = profileChecked(chk, cur.s.prog, cur.s.plan,
                                    cur.s.queue_of, cur.s.cycles,
                                    profile_run);
        closeRound();
    }

    // The final schedule's counts, from its checked simulation (the
    // round-1 profile run when no move was accepted).
    for (const CoreStats &core : cur.run.core) {
        const ThreadStats &st = core.counts;
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
