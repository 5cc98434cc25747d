#ifndef GMT_PDG_PDG_HPP
#define GMT_PDG_PDG_HPP

/**
 * @file
 * The Program Dependence Graph [5]: instruction-granularity nodes with
 * register (flow), memory, and control dependence arcs. "The PDG
 * contains all the dependences that need to be honored in order to
 * preserve the semantics of the original program" — every GMT
 * partitioner runs on it, and MTCG/COCO communicate exactly its
 * inter-thread arcs (paper Property 1).
 */

#include <span>
#include <vector>

#include "analysis/mem_dep.hpp"
#include "graph/digraph.hpp"
#include "ir/function.hpp"

namespace gmt
{

/** Kind of a PDG arc. */
enum class DepKind { Register, Memory, Control };

/** One dependence arc. */
struct PdgArc
{
    InstrId src = kNoInstr;
    InstrId dst = kNoInstr;
    DepKind kind = DepKind::Register;

    /** The register carried, for DepKind::Register. */
    Reg reg = kNoReg;

    /** Flow/anti/output, for DepKind::Memory. */
    MemDepKind mem_kind = MemDepKind::Flow;
};

/**
 * Program dependence graph of one function: one flat arc vector, and
 * in/out adjacency as offset arrays over it (each list ascending).
 */
class Pdg
{
  public:
    /** The PDG of @p f with arcs @p arcs, which hold no two arcs
     *  equal on (src, dst, kind, reg). */
    Pdg(const Function &f, std::vector<PdgArc> arcs);

    const Function &func() const { return *func_; }

    int numArcs() const { return static_cast<int>(arcs_.size()); }
    const PdgArc &arc(int a) const { return arcs_[a]; }
    const std::vector<PdgArc> &arcs() const { return arcs_; }

    /** Arc indices leaving / entering an instruction, ascending. */
    std::span<const int>
    arcsFrom(InstrId i) const
    {
        return {from_.data() + from_off_[i],
                from_.data() + from_off_[i + 1]};
    }
    std::span<const int>
    arcsTo(InstrId i) const
    {
        return {to_.data() + to_off_[i], to_.data() + to_off_[i + 1]};
    }

    /** Add an arc to the built graph unless one equal on (src, dst,
     *  kind, reg) exists; re-indexes the adjacency (for mutation
     *  tests, not for construction). */
    void addArc(PdgArc arc);

    /** The memory arcs, in arc order (the happens-before engine and
     *  COCO's per-pair enumeration both iterate exactly these). */
    std::vector<const PdgArc *> memArcs() const;

    /**
     * View as a plain digraph over InstrIds (for SCC/condensation in
     * the partitioners).
     */
    Digraph asDigraph() const;

  private:
    /** Rebuild the offset arrays from arcs_. */
    void index();

    const Function *func_;
    std::vector<PdgArc> arcs_;
    /** Arcs leaving i: from_[from_off_[i] .. from_off_[i + 1]); to_
     *  likewise for arcs entering i. */
    std::vector<int> from_off_, from_, to_off_, to_;
};

} // namespace gmt

#endif // GMT_PDG_PDG_HPP
