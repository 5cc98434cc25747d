#include "pdg/pdg_builder.hpp"

#include <algorithm>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/mem_dep.hpp"
#include "support/bit_vector.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/** Register flow arcs via iterative reaching definitions. */
void
addRegisterArcs(const Function &f, std::vector<PdgArc> &arcs)
{
    // Enumerate definition sites.
    std::vector<InstrId> def_sites;
    std::vector<int> site_of(f.numInstrs(), -1);
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        if (f.defOf(i) != kNoReg) {
            site_of[i] = static_cast<int>(def_sites.size());
            def_sites.push_back(i);
        }
    }
    const int nd = static_cast<int>(def_sites.size());
    const int nb = f.numBlocks();

    // Per-register site lists, for KILL sets.
    std::vector<std::vector<int>> sites_of_reg(f.numRegs());
    for (int s = 0; s < nd; ++s)
        sites_of_reg[f.defOf(def_sites[s])].push_back(s);

    // Block-level GEN/KILL.
    std::vector<BitVector> gen(nb, BitVector(nd));
    std::vector<BitVector> kill(nb, BitVector(nd));
    for (BlockId b = 0; b < nb; ++b) {
        for (InstrId i : f.block(b).instrs()) {
            Reg def = f.defOf(i);
            if (def == kNoReg)
                continue;
            for (int s : sites_of_reg[def]) {
                gen[b].reset(s);
                kill[b].set(s);
            }
            gen[b].set(site_of[i]);
        }
    }

    // Forward union fixpoint. The two scratch sets are reused across
    // blocks and passes (a changed set is swapped in, not copied).
    std::vector<BitVector> in(nb, BitVector(nd));
    std::vector<BitVector> out(nb, BitVector(nd));
    BitVector new_in(nd), new_out(nd);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b) {
            new_in.clearAll();
            for (BlockId p : f.block(b).preds())
                new_in.unionWith(out[p]);
            new_out = new_in;
            new_out.subtract(kill[b]);
            new_out.unionWith(gen[b]);
            if (!(new_in == in[b])) {
                std::swap(in[b], new_in);
                changed = true;
            }
            if (!(new_out == out[b])) {
                std::swap(out[b], new_out);
                changed = true;
            }
        }
    }

    // Attach def -> use arcs by walking each block. A use of r can
    // only be reached by r's own sites, so each use tests the reaching
    // bit of those alone; sites ascend, so arcs come out in the order
    // a scan of the whole reaching set would give. A register an
    // instruction reads twice (two equal operands, or a Ret repeating
    // a live-out) gets its arcs once.
    BitVector &reaching = new_in; // reuses the scratch storage
    for (BlockId b = 0; b < nb; ++b) {
        reaching = in[b];
        for (InstrId i : f.block(b).instrs()) {
            const UseList uses = f.usesOf(i);
            for (size_t k = 0; k < uses.size(); ++k) {
                const Reg use = uses[k];
                if (std::find(uses.begin(), uses.begin() + k, use) !=
                    uses.begin() + k)
                    continue;
                for (int s : sites_of_reg[use]) {
                    if (reaching.test(s))
                        arcs.push_back({def_sites[s], i,
                                        DepKind::Register, use,
                                        MemDepKind::Flow});
                }
            }
            Reg def = f.defOf(i);
            if (def != kNoReg) {
                for (int s : sites_of_reg[def])
                    reaching.reset(s);
                reaching.set(site_of[i]);
            }
        }
    }
}

void
addMemoryArcs(const Function &f, std::vector<PdgArc> &arcs)
{
    // computeMemDeps lists each (src, dst) pair at most once.
    for (const MemDep &dep : computeMemDeps(f))
        arcs.push_back(
            {dep.src, dep.dst, DepKind::Memory, kNoReg, dep.kind});
}

void
addControlArcs(const Function &f, const ControlDependence &cd,
               std::vector<PdgArc> &arcs)
{
    // controlledBy lists each block once, so each (branch, i) comes
    // once.
    for (BlockId a = 0; a < f.numBlocks(); ++a) {
        const BasicBlock &bb = f.block(a);
        if (bb.succs().size() < 2)
            continue;
        InstrId branch = bb.terminator();
        GMT_ASSERT(f.instr(branch).isBranch());
        for (BlockId c : cd.controlledBy(a)) {
            for (InstrId i : f.block(c).instrs()) {
                if (i != branch) {
                    arcs.push_back({branch, i, DepKind::Control, kNoReg,
                                    MemDepKind::Flow});
                }
            }
        }
    }
}

} // namespace

Pdg
buildPdg(const Function &f, const ControlDependence &cd)
{
    // Arcs of different kinds never compare equal on (src, dst, kind,
    // reg), and no builder repeats one of its own, so the vector is
    // duplicate-free as assembled.
    std::vector<PdgArc> arcs;
    addRegisterArcs(f, arcs);
    addMemoryArcs(f, arcs);
    addControlArcs(f, cd, arcs);
    return Pdg(f, std::move(arcs));
}

Pdg
buildPdg(const Function &f)
{
    return buildPdg(f, ControlDependence(f, DominatorTree::postDominators(f)));
}

} // namespace gmt
