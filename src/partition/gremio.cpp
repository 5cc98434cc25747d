#include "partition/gremio.hpp"

#include <algorithm>
#include <vector>

#include "analysis/dominators.hpp"
#include "analysis/loop_info.hpp"
#include "graph/scc.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

// Latency estimates of the ready-time model, in cycles.
constexpr uint64_t kAluLatency = 1;  ///< per ALU instruction
constexpr uint64_t kMemLatency = 2;  ///< per memory access
constexpr uint64_t kCommLatency = 2; ///< produce -> consume

uint64_t
latencyOf(const Instr &in)
{
    return in.isMemoryAccess() ? kMemLatency : kAluLatency;
}

} // namespace

/**
 * GREMIO-style hierarchical scheduling, approximated in two levels:
 *
 *  1. Atomic units are the PDG's strongly connected components
 *     (recurrences cannot be split without creating a fully
 *     serializing cross-thread cycle). Mirroring GREMIO's
 *     hierarchical treatment of control regions, all units living
 *     entirely inside one innermost loop are merged into a single
 *     unit when that loop fits into a thread's fair share of the
 *     total profile-weighted work — whole inner regions then move
 *     between threads as units, which is what produces the
 *     loop-boundary communication the paper observes.
 *  2. Units are list-scheduled in dependence order onto threads by
 *     estimated finish time: a unit starts when its cross-thread
 *     inputs have arrived (communication latency scaled by the
 *     dependence's dynamic frequency) and its thread is free.
 *     Cyclic inter-thread dependences are permitted (unlike DSWP).
 */
ThreadPartition
gremioPartition(const Pdg &pdg, const EdgeProfile &profile,
                const PartitionOptions &opts, PartitionProvenance *prov)
{
    const Function &f = pdg.func();
    GMT_ASSERT(opts.num_threads >= 1);

    if (prov) {
        prov->algorithm = "GREMIO";
        prov->num_threads = opts.num_threads;
    }

    ThreadPartition p;
    p.num_threads = opts.num_threads;
    p.assign.assign(f.numInstrs(), 0);
    if (opts.num_threads == 1) {
        if (prov) {
            prov->unit_of.assign(f.numInstrs(), 0);
            prov->thread_of.assign(f.numInstrs(), 0);
            UnitDecision d;
            d.num_members = f.numInstrs();
            d.first_instr = f.numInstrs() > 0 ? 0 : -1;
            prov->units.push_back(std::move(d));
        }
        return p;
    }

    // --- Level 1: units ---------------------------------------------
    Digraph g = pdg.asDigraph();
    SccResult sccs = computeSccs(g);
    std::vector<int> unit_of(f.numInstrs());
    for (InstrId i = 0; i < f.numInstrs(); ++i)
        unit_of[i] = sccs.component[i];
    int num_units = sccs.numComponents();

    // Weighted work per instruction and total.
    auto instr_work = [&](InstrId i) -> uint64_t {
        const Instr &in = f.instr(i);
        uint64_t w = latencyOf(in) *
                     std::max<uint64_t>(profile.blockWeight(in.block), 1);
        if (opts.feedback)
            w += opts.feedback->blockBoost(in.block);
        return w;
    };
    uint64_t total_work = 0;
    for (InstrId i = 0; i < f.numInstrs(); ++i)
        total_work += instr_work(i);
    uint64_t fair_share =
        total_work / static_cast<uint64_t>(opts.num_threads);

    // Merge units inside one innermost loop when the loop fits a
    // thread's share.
    auto dom = DominatorTree::dominators(f);
    LoopInfo loops(f, dom);
    if (loops.numLoops() > 0) {
        // Work per loop (innermost attribution).
        std::vector<uint64_t> loop_work(loops.numLoops(), 0);
        for (InstrId i = 0; i < f.numInstrs(); ++i) {
            int l = loops.loopOf(f.instr(i).block);
            if (l >= 0)
                loop_work[l] += instr_work(i);
        }
        // Union units sharing a mergeable innermost loop. A unit
        // whose members span several loops keeps its smallest member
        // loop only if all members agree.
        std::vector<int> unit_loop(num_units, -2); // -2 unset, -1 none
        for (InstrId i = 0; i < f.numInstrs(); ++i) {
            int l = loops.loopOf(f.instr(i).block);
            int &ul = unit_loop[unit_of[i]];
            if (ul == -2)
                ul = l;
            else if (ul != l)
                ul = -1;
        }
        std::vector<int> loop_unit(loops.numLoops(), -1);
        std::vector<int> remap(num_units);
        int next = 0;
        for (int u = 0; u < num_units; ++u) {
            int l = unit_loop[u];
            if (l >= 0 && loop_work[l] <= fair_share) {
                if (loop_unit[l] == -1)
                    loop_unit[l] = next++;
                remap[u] = loop_unit[l];
            } else {
                remap[u] = next++;
            }
        }
        for (InstrId i = 0; i < f.numInstrs(); ++i)
            unit_of[i] = remap[unit_of[i]];
        if (prov)
            prov->loop_merges += num_units - next;
        num_units = next;
    }

    // Loop merging can create cycles between units (e.g. a memory
    // recurrence tying two loops together). Cyclic cross-thread
    // dependences between fine-grained units serialize every
    // iteration through two communication latencies, so mutually
    // cyclic units are merged until the unit graph is acyclic.
    while (true) {
        Digraph ug(num_units);
        for (const auto &arc : pdg.arcs()) {
            int us = unit_of[arc.src];
            int ud = unit_of[arc.dst];
            if (us != ud)
                ug.addEdge(us, ud);
        }
        SccResult merged = computeSccs(ug);
        if (merged.numComponents() == num_units)
            break;
        for (InstrId i = 0; i < f.numInstrs(); ++i)
            unit_of[i] = merged.component[unit_of[i]];
        if (prov)
            prov->cycle_merges += num_units - merged.numComponents();
        num_units = merged.numComponents();
    }

    // --- Level 2: list scheduling ------------------------------------
    Digraph units(num_units);
    for (const auto &arc : pdg.arcs()) {
        int us = unit_of[arc.src];
        int ud = unit_of[arc.dst];
        if (us != ud)
            units.addEdge(us, ud);
    }
    std::vector<uint64_t> unit_work(num_units, 0);
    for (InstrId i = 0; i < f.numInstrs(); ++i)
        unit_work[unit_of[i]] += instr_work(i);

    // Dependence order (the merged unit graph is acyclic).
    std::vector<int> order = units.topoSort();
    GMT_ASSERT(static_cast<int>(order.size()) == num_units,
               "unit graph still cyclic after merging");

    std::vector<int> unit_thread(num_units, -1);
    std::vector<uint64_t> busy(opts.num_threads, 0);

    // Member lists to avoid rescanning every instruction per unit.
    std::vector<std::vector<InstrId>> members(num_units);
    for (InstrId i = 0; i < f.numInstrs(); ++i)
        members[unit_of[i]].push_back(i);

    // Balance-vs-communication greedy: place each unit (dependence
    // order) on the thread minimizing its load after placement plus
    // the dynamic cost of the cross-thread values it would consume —
    // a produce/consume pair plus the communication latency per
    // occurrence, deduplicated per producing instruction. Values
    // produced at region boundaries (loop live-outs, hammock joins)
    // are orders of magnitude cheaper to cross than values produced
    // every iteration, so splits gravitate to region boundaries, the
    // behaviour GREMIO's hierarchical scheduling exhibits; within a
    // hot region, load imbalance eventually outweighs a per-iteration
    // crossing and the region splits anyway (cyclic inter-thread
    // dependences are allowed, unlike DSWP).
    const uint64_t comm_cost_per_value = 2 + kCommLatency;
    int decision_order = 0;
    for (int u : order) {
        uint64_t best_score = ~uint64_t{0};
        int best_t = 0;
        std::vector<ThreadCandidate> candidates;
        for (int t = 0; t < opts.num_threads; ++t) {
            uint64_t comm = 0;
            std::vector<InstrId> counted;
            for (InstrId i : members[u]) {
                for (int a : pdg.arcsTo(i)) {
                    InstrId src = pdg.arc(a).src;
                    int su = unit_of[src];
                    if (su == u || unit_thread[su] == -1 ||
                        unit_thread[su] == t)
                        continue;
                    // Stall feedback is per arc (per queue carried),
                    // charged before the per-producer dedup below.
                    if (opts.feedback)
                        comm += opts.feedback->arcBoost(a);
                    if (std::find(counted.begin(), counted.end(),
                                  src) != counted.end())
                        continue;
                    counted.push_back(src);
                    uint64_t freq = std::max<uint64_t>(
                        profile.blockWeight(f.instr(src).block), 1);
                    comm += comm_cost_per_value * freq;
                }
            }
            uint64_t score = busy[t] + unit_work[u] + comm;
            if (prov)
                candidates.push_back({t, busy[t], comm, score, false});
            if (score < best_score ||
                (score == best_score && busy[t] < busy[best_t])) {
                best_score = score;
                best_t = t;
            }
        }
        if (prov) {
            candidates[best_t].chosen = true;
            UnitDecision d;
            d.unit = u;
            d.thread = best_t;
            d.order = decision_order++;
            d.work = unit_work[u];
            d.num_members = static_cast<int>(members[u].size());
            d.first_instr = members[u].empty() ? -1 : members[u][0];
            d.candidates = std::move(candidates);
            prov->units.push_back(std::move(d));
        }
        unit_thread[u] = best_t;
        busy[best_t] += unit_work[u];
    }

    for (InstrId i = 0; i < f.numInstrs(); ++i)
        p.assign[i] = unit_thread[unit_of[i]];

    if (prov) {
        prov->unit_of = unit_of;
        prov->thread_of.assign(p.assign.begin(), p.assign.end());
    }
    return p;
}

} // namespace gmt
