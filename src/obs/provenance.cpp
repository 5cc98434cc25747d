#include "obs/provenance.hpp"

#include <ostream>
#include <sstream>

#include "support/json.hpp"

namespace gmt
{

const UnitDecision *Provenance::unitDecisionFor(InstrId i) const
{
    if (i < 0 || i >= static_cast<InstrId>(partition.unit_of.size()))
        return nullptr;
    const int unit = partition.unit_of[i];
    for (const UnitDecision &d : partition.units)
        if (d.unit == unit)
            return &d;
    return nullptr;
}

const QueueDecision *Provenance::queueDecisionFor(int q) const
{
    for (const QueueDecision &d : queues.queues)
        if (d.queue == q)
            return &d;
    return nullptr;
}

const PlacementDecision *Provenance::placementDecisionFor(int index) const
{
    if (index < 0 ||
        index >= static_cast<int>(placement.placements.size()))
        return nullptr;
    const PlacementDecision &d = placement.placements[index];
    return d.index == index ? &d : nullptr;
}

namespace
{

// Hand-rolled writer: keys are emitted in one fixed order, arrays in
// the deterministic orders the structs guarantee, so equal values
// always produce equal bytes (the property the determinism tests and
// gmt-explain --diff rely on). Strings go through the shared escaper:
// cell and workload names come from `.gmt` files and may hold any
// byte but whitespace.

void writeCandidate(std::ostream &os, const ThreadCandidate &c)
{
    os << "{\"thread\":" << c.thread << ",\"busy\":" << c.busy
       << ",\"comm\":" << c.comm << ",\"score\":" << c.score
       << ",\"chosen\":" << (c.chosen ? "true" : "false") << '}';
}

void writeUnit(std::ostream &os, const UnitDecision &u)
{
    os << "{\"unit\":" << u.unit << ",\"thread\":" << u.thread
       << ",\"order\":" << u.order << ",\"work\":" << u.work
       << ",\"members\":" << u.num_members
       << ",\"first_instr\":" << u.first_instr
       << ",\"acc_before\":" << u.acc_before
       << ",\"target\":" << u.target << ",\"candidates\":[";
    for (size_t i = 0; i < u.candidates.size(); ++i) {
        if (i)
            os << ',';
        writeCandidate(os, u.candidates[i]);
    }
    os << "]}";
}

void writeIntArray(std::ostream &os, const std::vector<int> &v)
{
    os << '[';
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            os << ',';
        os << v[i];
    }
    os << ']';
}

void writePartition(std::ostream &os, const PartitionProvenance &p)
{
    os << "{\"algorithm\":";
    writeJsonString(os, p.algorithm);
    os << ",\"num_threads\":" << p.num_threads
       << ",\"loop_merges\":" << p.loop_merges
       << ",\"cycle_merges\":" << p.cycle_merges << ",\"unit_of\":";
    writeIntArray(os, p.unit_of);
    os << ",\"thread_of\":";
    writeIntArray(os, p.thread_of);
    os << ",\"units\":[";
    for (size_t i = 0; i < p.units.size(); ++i) {
        if (i)
            os << ',';
        writeUnit(os, p.units[i]);
    }
    os << "]}";
}

void writePoint(std::ostream &os, const CutPointCost &p)
{
    os << "{\"block\":" << p.block << ",\"pos\":" << p.pos
       << ",\"cost\":" << p.cost << ",\"arcs\":" << p.arcs << '}';
}

void writeDecision(std::ostream &os, const PlacementDecision &d)
{
    os << "{\"index\":" << d.index
       << ",\"kind\":" << (d.is_mem ? "\"mem\"" : "\"reg\"")
       << ",\"reg\":" << d.reg << ",\"src\":" << d.src_thread
       << ",\"dst\":" << d.dst_thread << ",\"rule\":";
    writeJsonString(os, d.rule);
    os << ",\"iteration\":" << d.iteration
       << ",\"problem\":" << d.problem
       << ",\"cut_cost\":" << d.cut_cost
       << ",\"graph_nodes\":" << d.graph_nodes
       << ",\"graph_arcs\":" << d.graph_arcs
       << ",\"deps\":" << d.num_deps << ",\"points\":[";
    for (size_t i = 0; i < d.points.size(); ++i) {
        if (i)
            os << ',';
        writePoint(os, d.points[i]);
    }
    os << "]}";
}

void writePlacement(std::ostream &os, const PlacementProvenance &p)
{
    os << "{\"source\":";
    writeJsonString(os, p.source);
    os << ",\"iterations\":" << p.iterations << ",\"placements\":[";
    for (size_t i = 0; i < p.placements.size(); ++i) {
        if (i)
            os << ',';
        writeDecision(os, p.placements[i]);
    }
    os << "],\"elided\":[";
    for (size_t i = 0; i < p.elided.size(); ++i) {
        if (i)
            os << ',';
        writeDecision(os, p.elided[i]);
    }
    os << "]}";
}

void writeQueue(std::ostream &os, const QueueDecision &q)
{
    os << "{\"queue\":" << q.queue << ",\"src\":" << q.src_thread
       << ",\"dst\":" << q.dst_thread << ",\"rule\":";
    writeJsonString(os, q.rule);
    os << ",\"pair_placements\":" << q.pair_placements
       << ",\"pair_queues\":" << q.pair_queues << ",\"placements\":";
    writeIntArray(os, q.placements);
    os << '}';
}

void writeQueues(std::ostream &os, const QueueProvenance &q)
{
    os << "{\"max_queues\":" << q.max_queues
       << ",\"num_queues\":" << q.num_queues << ",\"queues\":[";
    for (size_t i = 0; i < q.queues.size(); ++i) {
        if (i)
            os << ',';
        writeQueue(os, q.queues[i]);
    }
    os << "]}";
}

} // namespace

void writeProvenanceJson(std::ostream &os, const Provenance &p)
{
    os << "{\"schema\":1,\"type\":\"provenance\",\"cell\":";
    writeJsonString(os, p.cell);
    os << ",\"workload\":";
    writeJsonString(os, p.workload);
    os << ",\"scheduler\":";
    writeJsonString(os, p.scheduler);
    os << ",\"coco\":" << (p.coco ? "true" : "false")
       << ",\"num_threads\":" << p.num_threads << ",\"partition\":";
    writePartition(os, p.partition);
    os << ",\"placement\":";
    writePlacement(os, p.placement);
    os << ",\"queues\":";
    writeQueues(os, p.queues);
    os << '}';
}

std::string provenanceJson(const Provenance &p)
{
    std::ostringstream os;
    writeProvenanceJson(os, p);
    return os.str();
}

} // namespace gmt
