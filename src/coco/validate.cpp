#include "coco/validate.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "coco/safety.hpp"
#include "mtverify/uncovered_path.hpp"

namespace gmt
{

std::vector<MtvDiag>
validatePlanDiags(const Function &f, const Pdg &pdg,
                  const ThreadPartition &partition,
                  const ControlDependence &cd, const CommPlan &plan)
{
    std::vector<MtvDiag> problems;
    auto complain = [&](MtvCode code, MtvDiag coords, auto &&...parts) {
        std::ostringstream os;
        (os << ... << parts);
        coords.code = code;
        coords.message = os.str();
        problems.push_back(std::move(coords));
    };

    // Structural pre-check: every point must name a real program
    // position before any analysis consumes the plan.
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        for (const auto &p : plan.placements[pi].points) {
            if (p.block < 0 || p.block >= f.numBlocks() || p.pos < 0 ||
                p.pos >= static_cast<int>(f.block(p.block).size())) {
                complain(MtvCode::PlanInvalidPoint, {},
                         "placement ", pi, ": invalid point");
            }
        }
    }
    if (!problems.empty()) {
        sortDiags(problems);
        dedupeDiags(problems);
        return problems;
    }

    RelevantSets relevant(f, cd, partition, plan);

    // Properties 2 and 3 per placement point.
    std::vector<std::unique_ptr<SafetyAnalysis>> safety(
        partition.num_threads);
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        if (!safety[pl.src_thread]) {
            safety[pl.src_thread] = std::make_unique<SafetyAnalysis>(
                f, partition, pl.src_thread);
        }
        for (const auto &p : pl.points) {
            if (!relevant.isRelevantPoint(pl.src_thread, p.block, cd)) {
                complain(MtvCode::PlanSourceIrrelevant,
                         {.thread = pl.src_thread,
                          .block = p.block,
                          .pos = p.pos},
                         "placement ", pi,
                         ": Property 2 violated (point in block ",
                         f.block(p.block).label(),
                         " not relevant to source thread ",
                         pl.src_thread, ")");
            }
            if (pl.kind == CommKind::RegisterData &&
                !safety[pl.src_thread]->isSafeAt(pl.reg, p)) {
                // MTCG's operand forwarding: a thread may re-produce
                // a value it consumes *at the same point* from an
                // earlier placement (Algorithm 1 lines 17-19 send a
                // branch operand the owner just received). The
                // earlier placement's own check guarantees the
                // forwarded value is the latest.
                bool forwarded = false;
                for (size_t pj = 0; pj < pi && !forwarded; ++pj) {
                    const CommPlacement &prev = plan.placements[pj];
                    forwarded =
                        prev.kind == CommKind::RegisterData &&
                        prev.reg == pl.reg &&
                        prev.dst_thread == pl.src_thread &&
                        std::find(prev.points.begin(),
                                  prev.points.end(),
                                  p) != prev.points.end();
                }
                if (!forwarded) {
                    complain(MtvCode::PlanUnsafePoint,
                             {.thread = pl.src_thread,
                              .block = p.block,
                              .pos = p.pos},
                             "placement ", pi,
                             ": Property 3 violated (r", pl.reg,
                             " unsafe at ", f.block(p.block).label(),
                             ":", p.pos, ")");
                }
            }
        }
    }

    // Coverage of every cross-thread PDG arc.
    UncoveredPathSearch paths(f, partition, plan);
    for (const auto &arc : pdg.arcs()) {
        int ts = partition.threadOf(arc.src);
        int tt = partition.threadOf(arc.dst);
        if (ts == tt || arc.kind == DepKind::Control)
            continue;
        if (paths.escapes(arc)) {
            complain(MtvCode::PlanUncoveredArc,
                     {.thread = tt,
                      .block = f.instr(arc.dst).block,
                      .instr = arc.dst},
                     "arc i", arc.src, " -> i", arc.dst, " (",
                     arc.kind == DepKind::Register ? "reg" : "mem",
                     ") from T", ts, " to T", tt,
                     " has an uncovered path");
        }
    }
    sortDiags(problems);
    dedupeDiags(problems);
    return problems;
}

std::vector<std::string>
validatePlan(const Function &f, const Pdg &pdg,
             const ThreadPartition &partition,
             const ControlDependence &cd, const CommPlan &plan)
{
    std::vector<std::string> rendered;
    for (const MtvDiag &d :
         validatePlanDiags(f, pdg, partition, cd, plan))
        rendered.push_back(renderDiag(d));
    return rendered;
}

} // namespace gmt
