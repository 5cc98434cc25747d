#ifndef GMT_MTVERIFY_MTVERIFY_HPP
#define GMT_MTVERIFY_MTVERIFY_HPP

/**
 * @file
 * Static verifier for MTCG-generated multi-threaded code.
 *
 * Given the original function, its PDG, the thread partition, the
 * communication plan that drove emission, and the emitted program,
 * verifyMtProgram statically proves three theorems and reports every
 * violation as a structured MtvDiag:
 *
 *  1. Dependence preservation — every register/memory/control PDG arc
 *     is honored by intra-thread program order or by a produce→consume
 *     chain on some queue, checked by mapping emitted instructions
 *     back to their originals (thread_map.hpp) and walking each
 *     emitted block against the plan.
 *  2. Queue balance — produce/consume multiplicities and token kinds
 *     agree between the endpoint threads of every queue along every
 *     path of the original CFG (queue_balance.hpp).
 *  3. Deadlock freedom — the per-block wait-for graph over
 *     communication events has no cycle unbroken by queue capacity
 *     (deadlock.hpp).
 *  4. Race freedom — every pair of conflicting memory operations in
 *     different threads is ordered by a produce->consume sync chain
 *     on every path, proven by the happens-before engine (hb.hpp)
 *     over the emitted code; skippable via check_hb.
 *
 * The plan and queue assignment serve as the *witness*: emission is
 * checked faithful to the plan, and the plan is checked to cover the
 * PDG, so a clean report means the composition is sound. Checks 2 and
 * 3 deliberately re-derive everything from the emitted code alone, so
 * a bug that corrupts plan bookkeeping and emission consistently is
 * still caught.
 */

#include <string>
#include <vector>

#include "mtcg/comm_plan.hpp"
#include "mtverify/diag.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Everything the verifier needs. All pointers must be non-null
 *  except queue_of (null means the identity assignment: placement i
 *  uses queue i, which is how MTCG emits every program before
 *  assignQueues multiplexes it). */
struct MtVerifyInput
{
    const Function *orig = nullptr;
    const Pdg *pdg = nullptr;
    const ThreadPartition *partition = nullptr;
    const CommPlan *plan = nullptr;
    const std::vector<int> *queue_of = nullptr;
    const MtProgram *prog = nullptr;

    /** Run the happens-before race check (theorem 4). On by default;
     *  gmt-lint --no-hb and PipelineOptions::verify_hb gate it. */
    bool check_hb = true;
};

/** Verification outcome: the deduplicated findings. */
struct MtVerifyResult
{
    std::vector<MtvDiag> diags;

    /** Conflicting cross-thread memory pairs the happens-before
     *  engine proved ordered (0 when check_hb was off). */
    int hb_pairs = 0;

    int errors() const { return countErrors(diags); }

    int
    warnings() const
    {
        return static_cast<int>(diags.size()) - errors();
    }

    bool ok() const { return errors() == 0; }

    /** All findings rendered one per line. */
    std::string render() const;
};

/** Run all checks over @p in. */
MtVerifyResult verifyMtProgram(const MtVerifyInput &in);

} // namespace gmt

#endif // GMT_MTVERIFY_MTVERIFY_HPP
