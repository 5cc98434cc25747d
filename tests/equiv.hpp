#ifndef GMT_TESTS_EQUIV_HPP
#define GMT_TESTS_EQUIV_HPP

/**
 * @file
 * The ST-vs-MT equivalence oracle shared by the MTCG, COCO, and
 * workload test suites: a generated multi-threaded program must
 * observe exactly the single-threaded live-outs and final memory, for
 * every interleaving schedule, must never deadlock, and must drain
 * every queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/interpreter.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Outcome of one equivalence check (usable in ASSERT_TRUE). */
struct EquivOutcome
{
    bool ok = true;
    std::string detail;
    MtRunResult mt;
};

/**
 * Run @p prog against the reference @p f on @p args and compare.
 * @p mem_cells cells of memory are allocated and pre-filled by
 * @p fill (may be null).
 */
inline EquivOutcome
checkEquivalence(const Function &f, const MtProgram &prog,
                 const std::vector<int64_t> &args, int64_t mem_cells,
                 void (*fill)(MemoryImage &), SchedulePolicy policy,
                 uint64_t seed)
{
    EquivOutcome out;

    MemoryImage st_mem;
    st_mem.alloc(mem_cells);
    if (fill)
        fill(st_mem);
    auto st = interpret(f, args, st_mem);

    MemoryImage mt_mem;
    mt_mem.alloc(mem_cells);
    if (fill)
        fill(mt_mem);
    out.mt = interpretMt(prog, args, mt_mem, policy, seed);

    if (out.mt.deadlock) {
        out.ok = false;
        out.detail = "deadlock";
    } else if (const char *what = outputMismatch(
                   out.mt.live_outs, mt_mem, out.mt.queues_drained,
                   st.live_outs, st_mem)) {
        out.ok = false;
        out.detail = what;
    }
    return out;
}

} // namespace gmt

#endif // GMT_TESTS_EQUIV_HPP
