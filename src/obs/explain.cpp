#include "obs/explain.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "ir/printer.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

namespace
{

void
writeIntArray(std::ostream &os, const std::vector<int> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            os << ",";
        os << v[i];
    }
    os << "]";
}

/** "t0->t1" rendering of a directed thread pair. */
std::string
pairStr(int src, int dst)
{
    return "t" + std::to_string(src) + "->t" + std::to_string(dst);
}

void
renderPlacementDecision(std::ostream &os, const PlacementDecision &d,
                        const char *indent)
{
    os << indent << "placement " << d.index << ": "
       << (d.is_mem ? "mem sync" : "reg r" + std::to_string(d.reg))
       << " " << pairStr(d.src_thread, d.dst_thread) << ", rule "
       << d.rule;
    if (d.iteration > 0)
        os << ", iteration " << d.iteration;
    if (d.problem >= 0)
        os << ", problem " << d.problem;
    if (d.rule == "coco-cut")
        os << ", cut cost " << d.cut_cost << " (graph " << d.graph_nodes
           << " nodes / " << d.graph_arcs << " arcs)";
    if (d.is_mem && d.num_deps > 0)
        os << ", " << d.num_deps << " deps";
    os << "\n";
    for (const CutPointCost &pt : d.points) {
        os << indent << "  point B" << pt.block << "+" << pt.pos
           << ": cost " << pt.cost;
        if (pt.arcs > 0)
            os << " (" << pt.arcs << " cut arcs)";
        os << "\n";
    }
}

void
writePlacementDecisionJson(std::ostream &os, const PlacementDecision &d)
{
    os << "{\"index\":" << d.index << ",\"kind\":"
       << (d.is_mem ? "\"mem\"" : "\"reg\"") << ",\"reg\":" << d.reg
       << ",\"src\":" << d.src_thread << ",\"dst\":" << d.dst_thread
       << ",\"rule\":";
    writeJsonString(os, d.rule);
    os << ",\"iteration\":" << d.iteration << ",\"problem\":" << d.problem
       << ",\"cut_cost\":" << d.cut_cost << ",\"points\":[";
    for (size_t i = 0; i < d.points.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"block\":" << d.points[i].block
           << ",\"pos\":" << d.points[i].pos
           << ",\"cost\":" << d.points[i].cost
           << ",\"arcs\":" << d.points[i].arcs << "}";
    }
    os << "]}";
}

void
writeUnitDecisionJson(std::ostream &os, const UnitDecision &u)
{
    os << "{\"unit\":" << u.unit << ",\"thread\":" << u.thread
       << ",\"order\":" << u.order << ",\"work\":" << u.work
       << ",\"members\":" << u.num_members
       << ",\"first_instr\":" << u.first_instr
       << ",\"acc_before\":" << u.acc_before
       << ",\"target\":" << u.target << ",\"candidates\":[";
    for (size_t i = 0; i < u.candidates.size(); ++i) {
        const ThreadCandidate &c = u.candidates[i];
        if (i)
            os << ",";
        os << "{\"thread\":" << c.thread << ",\"busy\":" << c.busy
           << ",\"comm\":" << c.comm << ",\"score\":" << c.score
           << ",\"chosen\":" << (c.chosen ? "true" : "false") << "}";
    }
    os << "]}";
}

/**
 * Plan placement decisions that involve instruction @p i: register
 * decisions carrying its def from its thread, in index order.
 */
std::vector<const PlacementDecision *>
placementsInvolving(const Provenance &prov, const Function &f, InstrId i)
{
    std::vector<const PlacementDecision *> out;
    const Reg def = f.defOf(i);
    if (def == kNoReg)
        return out;
    const int thread = i < (InstrId)prov.partition.thread_of.size()
                           ? prov.partition.thread_of[i]
                           : 0;
    for (const PlacementDecision &d : prov.placement.placements)
        if (!d.is_mem && d.reg == def && d.src_thread == thread)
            out.push_back(&d);
    for (const PlacementDecision &d : prov.placement.elided)
        if (!d.is_mem && d.reg == def && d.src_thread == thread)
            out.push_back(&d);
    return out;
}

void
renderUnitDecision(std::ostream &os, const Provenance &prov,
                   const UnitDecision &u)
{
    const PartitionProvenance &part = prov.partition;
    os << "  partitioner " << part.algorithm << " placed unit "
       << u.unit << " (" << u.num_members << " instrs, work " << u.work
       << ") on " << (part.algorithm == "DSWP" ? "stage " : "thread ")
       << u.thread << "\n";
    os << "  decision #" << (u.order + 1) << " of "
       << part.units.size();
    if (part.algorithm == "DSWP") {
        os << "; greedy fill: stage load " << u.acc_before
           << " of target " << u.target << " before this unit\n";
    } else {
        os << "\n";
        for (const ThreadCandidate &c : u.candidates) {
            os << "    thread " << c.thread << ": busy " << c.busy
               << " + work " << u.work << " + comm " << c.comm << " = "
               << c.score << (c.chosen ? "  <= chosen" : "") << "\n";
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Point queries.

void
renderInstrExplanation(std::ostream &os, const Provenance &prov,
                       const Function &f, InstrId instr)
{
    if (instr < 0 || instr >= f.numInstrs()) {
        os << "instr " << instr << ": out of range (function has "
           << f.numInstrs() << " instructions)\n";
        return;
    }
    const ProgramPoint pt = f.pointBefore(instr);
    os << "instr " << instr << ": " << instrToString(f, instr)
       << "   [block " << f.block(pt.block).label();
    if (instr < (InstrId)prov.partition.thread_of.size())
        os << ", thread " << prov.partition.thread_of[instr];
    os << "]\n";
    const UnitDecision *u = prov.unitDecisionFor(instr);
    if (!u) {
        os << "  no partition decision recorded\n";
        return;
    }
    renderUnitDecision(os, prov, *u);
    auto placements = placementsInvolving(prov, f, instr);
    if (placements.empty()) {
        os << "  communicates: nothing (def stays thread-local)\n";
        return;
    }
    os << "  communicates:\n";
    for (const PlacementDecision *d : placements) {
        if (d->index < 0) {
            os << "    (elided) reg r" << d->reg << " "
               << pairStr(d->src_thread, d->dst_thread) << ", rule "
               << d->rule << " — cut proved no communication needed\n";
            continue;
        }
        renderPlacementDecision(os, *d, "    ");
    }
}

void
renderQueueExplanation(std::ostream &os, const Provenance &prov,
                       int queue)
{
    const QueueDecision *qd = prov.queueDecisionFor(queue);
    if (!qd) {
        os << "queue " << queue << ": not allocated ("
           << prov.queues.num_queues << " of "
           << (prov.queues.max_queues > 0
                   ? std::to_string(prov.queues.max_queues)
                   : std::string("unlimited"))
           << " queues in use)\n";
        if (!prov.placement.elided.empty()) {
            os << "  elided decisions (cut proved no communication "
                  "needed):\n";
            for (const PlacementDecision &d : prov.placement.elided) {
                os << "    "
                   << (d.is_mem ? "mem sync"
                                : "reg r" + std::to_string(d.reg))
                   << " " << pairStr(d.src_thread, d.dst_thread)
                   << ": rule " << d.rule;
                if (d.iteration > 0)
                    os << ", iteration " << d.iteration;
                os << " — empty point set\n";
            }
        }
        return;
    }
    os << "queue " << queue << ": "
       << pairStr(qd->src_thread, qd->dst_thread) << ", rule "
       << qd->rule << "\n";
    if (qd->rule == "identity")
        os << "  one queue per placement (no architected budget)\n";
    else
        os << "  pair " << pairStr(qd->src_thread, qd->dst_thread)
           << ": " << qd->pair_placements << " placements share "
           << qd->pair_queues << " queues (budget "
           << prov.queues.max_queues << ", " << prov.queues.num_queues
           << " allocated)\n";
    os << "  multiplexes " << qd->placements.size() << " placement"
       << (qd->placements.size() == 1 ? "" : "s") << "\n";
    for (int pi : qd->placements) {
        const PlacementDecision *d = prov.placementDecisionFor(pi);
        if (!d) {
            os << "    placement " << pi
               << ": no decision recorded\n";
            continue;
        }
        renderPlacementDecision(os, *d, "    ");
    }
}

void
writeInstrExplanationJson(std::ostream &os, const Provenance &prov,
                          const Function &f, InstrId instr)
{
    os << "{\"schema\":1,\"type\":\"explain-instr\",\"cell\":";
    writeJsonString(os, prov.cell);
    os << ",\"instr\":" << instr;
    const bool valid = instr >= 0 && instr < f.numInstrs();
    os << ",\"valid\":" << (valid ? "true" : "false");
    if (!valid) {
        os << "}";
        return;
    }
    os << ",\"text\":";
    writeJsonString(os, instrToString(f, instr));
    const ProgramPoint pt = f.pointBefore(instr);
    os << ",\"block\":";
    writeJsonString(os, f.block(pt.block).label());
    os << ",\"thread\":"
       << (instr < (InstrId)prov.partition.thread_of.size()
               ? prov.partition.thread_of[instr]
               : -1);
    os << ",\"algorithm\":";
    writeJsonString(os, prov.partition.algorithm);
    const UnitDecision *u = prov.unitDecisionFor(instr);
    os << ",\"decision\":";
    if (u)
        writeUnitDecisionJson(os, *u);
    else
        os << "null";
    os << ",\"placements\":[";
    auto placements = placementsInvolving(prov, f, instr);
    for (size_t i = 0; i < placements.size(); ++i) {
        if (i)
            os << ",";
        writePlacementDecisionJson(os, *placements[i]);
    }
    os << "]}";
}

void
writeQueueExplanationJson(std::ostream &os, const Provenance &prov,
                          int queue)
{
    os << "{\"schema\":1,\"type\":\"explain-queue\",\"cell\":";
    writeJsonString(os, prov.cell);
    os << ",\"queue\":" << queue;
    const QueueDecision *qd = prov.queueDecisionFor(queue);
    os << ",\"allocated\":" << (qd ? "true" : "false")
       << ",\"num_queues\":" << prov.queues.num_queues
       << ",\"max_queues\":" << prov.queues.max_queues;
    if (!qd) {
        os << ",\"elided\":[";
        for (size_t i = 0; i < prov.placement.elided.size(); ++i) {
            if (i)
                os << ",";
            writePlacementDecisionJson(os, prov.placement.elided[i]);
        }
        os << "]}";
        return;
    }
    os << ",\"src\":" << qd->src_thread << ",\"dst\":" << qd->dst_thread
       << ",\"rule\":";
    writeJsonString(os, qd->rule);
    os << ",\"pair_placements\":" << qd->pair_placements
       << ",\"pair_queues\":" << qd->pair_queues << ",\"placements\":[";
    for (size_t i = 0; i < qd->placements.size(); ++i) {
        if (i)
            os << ",";
        const PlacementDecision *d =
            prov.placementDecisionFor(qd->placements[i]);
        if (d)
            writePlacementDecisionJson(os, *d);
        else
            os << "{\"index\":" << qd->placements[i] << "}";
    }
    os << "]}";
}

// ---------------------------------------------------------------------------
// Costliest decisions.

CostliestReport
buildCostliestReport(const Provenance &prov, const StallReport &report,
                     const Function &f)
{
    CostliestReport r;
    r.total_stall_cycles = report.totalStallCycles();

    // Queue-side entries: every allocated queue the simulator charged.
    for (const QueueAttribution &qa : report.queues) {
        if (qa.prof.stallCycles() == 0)
            continue;
        CostEntry e;
        e.kind = "queue";
        e.cycles = qa.prof.stallCycles();
        e.queue = qa.queue;
        const QueueDecision *qd = prov.queueDecisionFor(qa.queue);
        if (qd) {
            e.queue_rule = qd->rule;
            ++e.records;
        }
        for (const PlacementDesc &pd : qa.placements) {
            e.placements.push_back(pd.placement);
            const PlacementDecision *d =
                prov.placementDecisionFor(pd.placement);
            if (d) {
                e.rules.push_back(d->rule);
                ++e.records;
            } else {
                e.rules.push_back("?");
            }
        }
        r.queue_cycles += e.cycles;
        if (e.records == 0)
            ++r.unresolved;
        r.entries.push_back(std::move(e));
    }

    // Block-side entries: label-join each MT block charge back to the
    // source block, then to the unit decisions that put the stalled
    // thread's instructions there. Replicated control (a block a
    // thread carries only for its branch) resolves through the
    // terminator's owning unit.
    std::map<std::string, BlockId> block_of_label;
    for (BlockId b = 0; b < f.numBlocks(); ++b)
        block_of_label[f.block(b).label()] = b;
    for (const BlockAttribution &ba : report.blocks) {
        CostEntry e;
        e.kind = "block";
        e.cycles = ba.prof.total();
        e.thread = ba.thread;
        e.label = ba.label;
        auto it = block_of_label.find(ba.label);
        if (it != block_of_label.end()) {
            e.block = it->second;
            const BasicBlock &bb = f.block(e.block);
            std::set<int> units;
            for (InstrId i : bb.instrs()) {
                if (i < (InstrId)prov.partition.thread_of.size() &&
                    prov.partition.thread_of[i] == ba.thread &&
                    i < (InstrId)prov.partition.unit_of.size())
                    units.insert(prov.partition.unit_of[i]);
            }
            if (units.empty() && bb.terminator() >= 0 &&
                bb.terminator() <
                    (InstrId)prov.partition.unit_of.size()) {
                units.insert(prov.partition.unit_of[bb.terminator()]);
                e.terminator_fallback = true;
            }
            e.units.assign(units.begin(), units.end());
            for (int u : e.units)
                if ((size_t)u < prov.partition.units.size())
                    ++e.records;
        }
        r.block_cycles += e.cycles;
        if (e.records == 0)
            ++r.unresolved;
        r.entries.push_back(std::move(e));
    }

    std::stable_sort(r.entries.begin(), r.entries.end(),
                     [](const CostEntry &a, const CostEntry &b) {
                         if (a.cycles != b.cycles)
                             return a.cycles > b.cycles;
                         if (a.kind != b.kind)
                             return a.kind > b.kind; // queue first
                         if (a.queue != b.queue)
                             return a.queue < b.queue;
                         if (a.thread != b.thread)
                             return a.thread < b.thread;
                         return a.block < b.block;
                     });
    return r;
}

void
renderCostliestReport(std::ostream &os, const CostliestReport &r,
                      int top)
{
    os << "costliest decisions: total stall " << r.total_stall_cycles
       << " cycles (block view " << r.block_cycles << ", queue view "
       << r.queue_cycles << ")";
    if (r.unresolved)
        os << "; WARNING: " << r.unresolved << " unresolved entries";
    os << "\n";
    const size_t n = top > 0 ? std::min(r.entries.size(), (size_t)top)
                             : r.entries.size();
    for (size_t i = 0; i < n; ++i) {
        const CostEntry &e = r.entries[i];
        os << "  " << (i + 1) << ". ";
        if (e.kind == "queue") {
            os << "queue " << e.queue << "  " << e.cycles
               << " cycles  rule " << e.queue_rule << "; placements";
            for (size_t k = 0; k < e.placements.size(); ++k)
                os << (k ? "," : "") << " " << e.placements[k] << " ("
                   << e.rules[k] << ")";
        } else {
            os << "block t" << e.thread << "/" << e.label << "  "
               << e.cycles << " cycles  units";
            for (size_t k = 0; k < e.units.size(); ++k)
                os << (k ? "," : "") << " " << e.units[k];
            if (e.terminator_fallback)
                os << " (replicated control; terminator's unit)";
        }
        os << "\n";
    }
    if (n < r.entries.size())
        os << "  ... " << (r.entries.size() - n) << " more\n";
}

void
writeCostliestReportJson(std::ostream &os, const CostliestReport &r,
                         int top)
{
    os << "{\"schema\":1,\"type\":\"costliest\",\"total_stall_cycles\":"
       << r.total_stall_cycles << ",\"block_cycles\":" << r.block_cycles
       << ",\"queue_cycles\":" << r.queue_cycles
       << ",\"unresolved\":" << r.unresolved << ",\"entries\":[";
    const size_t n = top > 0 ? std::min(r.entries.size(), (size_t)top)
                             : r.entries.size();
    for (size_t i = 0; i < n; ++i) {
        const CostEntry &e = r.entries[i];
        if (i)
            os << ",";
        os << "{\"kind\":";
        writeJsonString(os, e.kind);
        os << ",\"cycles\":" << e.cycles;
        if (e.kind == "queue") {
            os << ",\"queue\":" << e.queue << ",\"rule\":";
            writeJsonString(os, e.queue_rule);
            os << ",\"placements\":";
            writeIntArray(os, e.placements);
            os << ",\"rules\":[";
            for (size_t k = 0; k < e.rules.size(); ++k) {
                if (k)
                    os << ",";
                writeJsonString(os, e.rules[k]);
            }
            os << "]";
        } else {
            os << ",\"thread\":" << e.thread << ",\"block\":" << e.block
               << ",\"label\":";
            writeJsonString(os, e.label);
            os << ",\"units\":";
            writeIntArray(os, e.units);
            os << ",\"terminator_fallback\":"
               << (e.terminator_fallback ? "true" : "false");
        }
        os << ",\"records\":" << e.records << "}";
    }
    os << "]}";
}

// ---------------------------------------------------------------------------
// Schedule diff.

ScheduleDiff
diffSchedules(const Provenance &pa, const StallReport &ra,
              const Provenance &pb, const StallReport &rb)
{
    ScheduleDiff d;
    d.cell_a = pa.cell;
    d.cell_b = pb.cell;
    d.cycles_a = ra.cycles;
    d.cycles_b = rb.cycles;

    const size_t n = std::min(pa.partition.thread_of.size(),
                              pb.partition.thread_of.size());
    d.instrs = (int)std::max(pa.partition.thread_of.size(),
                             pb.partition.thread_of.size());
    for (size_t i = 0; i < n; ++i)
        if (pa.partition.thread_of[i] != pb.partition.thread_of[i])
            d.moved.push_back({(InstrId)i, pa.partition.thread_of[i],
                               pb.partition.thread_of[i]});
    // Length mismatch (different workloads): surface every trailing
    // instruction as moved so the diff is visibly nonzero.
    for (size_t i = n; i < pa.partition.thread_of.size(); ++i)
        d.moved.push_back({(InstrId)i, pa.partition.thread_of[i], -1});
    for (size_t i = n; i < pb.partition.thread_of.size(); ++i)
        d.moved.push_back({(InstrId)i, -1, pb.partition.thread_of[i]});

    d.queues_a = pa.queues.num_queues;
    d.queues_b = pb.queues.num_queues;
    std::map<int, std::pair<int64_t, int64_t>> qstall;
    for (const QueueAttribution &qa : ra.queues)
        qstall[qa.queue].first += (int64_t)qa.prof.stallCycles();
    for (const QueueAttribution &qa : rb.queues)
        qstall[qa.queue].second += (int64_t)qa.prof.stallCycles();
    for (const auto &[q, st] : qstall)
        if (st.first != st.second)
            d.queue_deltas.push_back({q, st.first, st.second});

    std::map<std::pair<int, std::string>, std::pair<int64_t, int64_t>>
        bstall;
    for (const BlockAttribution &ba : ra.blocks)
        bstall[{ba.thread, ba.label}].first +=
            (int64_t)ba.prof.total();
    for (const BlockAttribution &ba : rb.blocks)
        bstall[{ba.thread, ba.label}].second +=
            (int64_t)ba.prof.total();
    for (const auto &[key, st] : bstall)
        if (st.first != st.second)
            d.block_deltas.push_back(
                {key.first, key.second, st.first, st.second});
    return d;
}

void
renderScheduleDiff(std::ostream &os, const ScheduleDiff &d)
{
    os << "diff A (" << d.cell_a << ", " << d.cycles_a
       << " cycles) vs B (" << d.cell_b << ", " << d.cycles_b
       << " cycles): "
       << ((int64_t)d.cycles_b - (int64_t)d.cycles_a)
       << " cycle delta\n";
    if (d.zero()) {
        os << "  identical schedules: 0 moved instructions, 0 cycle "
              "deltas\n";
        return;
    }
    os << "  queues: " << d.queues_a << " -> " << d.queues_b << "\n";
    os << "  moved instructions: " << d.moved.size() << " of "
       << d.instrs << "\n";
    for (const InstrMove &m : d.moved)
        os << "    instr " << m.instr << ": t" << m.thread_a << " -> t"
           << m.thread_b << "\n";
    os << "  queue stall deltas: " << d.queue_deltas.size() << "\n";
    for (const QueueCycleDelta &q : d.queue_deltas)
        os << "    queue " << q.queue << ": " << q.stall_a << " -> "
           << q.stall_b << " (" << (q.stall_b - q.stall_a) << ")\n";
    os << "  block stall deltas: " << d.block_deltas.size() << "\n";
    for (const BlockCycleDelta &b : d.block_deltas)
        os << "    t" << b.thread << "/" << b.label << ": " << b.stall_a
           << " -> " << b.stall_b << " (" << (b.stall_b - b.stall_a)
           << ")\n";
}

void
writeScheduleDiffJson(std::ostream &os, const ScheduleDiff &d)
{
    os << "{\"schema\":1,\"type\":\"schedule-diff\",\"cell_a\":";
    writeJsonString(os, d.cell_a);
    os << ",\"cell_b\":";
    writeJsonString(os, d.cell_b);
    os << ",\"cycles_a\":" << d.cycles_a << ",\"cycles_b\":" << d.cycles_b
       << ",\"queues_a\":" << d.queues_a << ",\"queues_b\":" << d.queues_b
       << ",\"instrs\":" << d.instrs << ",\"zero\":"
       << (d.zero() ? "true" : "false") << ",\"moved\":[";
    for (size_t i = 0; i < d.moved.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"instr\":" << d.moved[i].instr << ",\"a\":"
           << d.moved[i].thread_a << ",\"b\":" << d.moved[i].thread_b
           << "}";
    }
    os << "],\"queue_deltas\":[";
    for (size_t i = 0; i < d.queue_deltas.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"queue\":" << d.queue_deltas[i].queue << ",\"a\":"
           << d.queue_deltas[i].stall_a << ",\"b\":"
           << d.queue_deltas[i].stall_b << "}";
    }
    os << "],\"block_deltas\":[";
    for (size_t i = 0; i < d.block_deltas.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"thread\":" << d.block_deltas[i].thread
           << ",\"label\":";
        writeJsonString(os, d.block_deltas[i].label);
        os << ",\"a\":" << d.block_deltas[i].stall_a << ",\"b\":"
           << d.block_deltas[i].stall_b << "}";
    }
    os << "]}";
}

} // namespace gmt
