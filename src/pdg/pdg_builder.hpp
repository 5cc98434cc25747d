#ifndef GMT_PDG_PDG_BUILDER_HPP
#define GMT_PDG_PDG_BUILDER_HPP

/**
 * @file
 * PDG construction: register flow arcs via reaching definitions,
 * memory arcs via the alias-class analysis, and control arcs via the
 * control-dependence relation (branch instruction -> every instruction
 * of each block it controls).
 *
 * Transitive control dependences (paper §2.1, Figure 3's D -> F) are
 * partition-dependent; they are realized later as "relevant branches"
 * by MTCG/COCO rather than materialized as PDG arcs.
 */

#include "analysis/control_dep.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/** Build the full PDG of @p f, taking control arcs from @p cd (the
 *  control dependence of @p f, built once by the caller). */
Pdg buildPdg(const Function &f, const ControlDependence &cd);

/** Build the full PDG of @p f, deriving its control dependence. */
Pdg buildPdg(const Function &f);

} // namespace gmt

#endif // GMT_PDG_PDG_BUILDER_HPP
