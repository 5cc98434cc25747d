#ifndef GMT_RUNTIME_INTERPRETER_HPP
#define GMT_RUNTIME_INTERPRETER_HPP

/**
 * @file
 * Functional single-threaded interpreter. It is (a) the semantic
 * reference every multi-threaded execution is checked against, and
 * (b) the profiler: it counts every CFG edge's execution frequency,
 * which becomes the arc costs of COCO's min-cut graphs (the paper
 * profiles on "train" inputs and evaluates on "reference" inputs).
 */

#include <cstdint>
#include <vector>

#include "ir/function.hpp"
#include "runtime/memory_image.hpp"
#include "support/error.hpp"

namespace gmt
{

/** Per-edge execution counts collected while interpreting. */
struct ProfileData
{
    /** counts[block][succ_slot] = times the edge was taken. */
    std::vector<std::vector<uint64_t>> edge_counts;

    /** block_counts[block] = times the block was entered. */
    std::vector<uint64_t> block_counts;

    uint64_t edgeCount(BlockId from, int succ_slot) const;
};

/** Result of a single-threaded run. */
struct StRunResult
{
    /** Values of the function's live-out registers at Ret. */
    std::vector<int64_t> live_outs;

    /** Dynamic instructions executed (all are "computation" here). */
    uint64_t dyn_instrs = 0;

    ProfileData profile;
};

/**
 * Evaluate a non-control, non-memory, non-queue opcode. Always
 * inline: every interpreter and timing engine pays this per dynamic
 * instruction, and the simulator calls it with a constant @p op from
 * one case per opcode, where it folds to that one operation.
 */
[[gnu::always_inline]] inline int64_t
evalAlu(Opcode op, int64_t a, int64_t b, int64_t imm)
{
    // The IR's i64 wraps on overflow; compute wrap-prone ops in
    // uint64_t, where wraparound is defined, and cast back.
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::Const: return imm;
      case Opcode::Mov: return a;
      case Opcode::Add: return static_cast<int64_t>(ua + ub);
      case Opcode::Sub: return static_cast<int64_t>(ua - ub);
      case Opcode::Mul: return static_cast<int64_t>(ua * ub);
      case Opcode::Div:
        if (b == 0) return 0;
        if (b == -1) return static_cast<int64_t>(0 - ua);
        return a / b;
      case Opcode::Rem:
        return b == 0 || b == -1 ? 0 : a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return static_cast<int64_t>(ua << (b & 63));
      case Opcode::Shr: return a >> (b & 63);
      case Opcode::Neg: return static_cast<int64_t>(0 - ua);
      case Opcode::Not: return ~a;
      case Opcode::Min: return a < b ? a : b;
      case Opcode::Max: return a > b ? a : b;
      case Opcode::Abs:
        return a < 0 ? static_cast<int64_t>(0 - ua) : a;
      case Opcode::CmpEq: return a == b;
      case Opcode::CmpNe: return a != b;
      case Opcode::CmpLt: return a < b;
      case Opcode::CmpLe: return a <= b;
      case Opcode::CmpGt: return a > b;
      case Opcode::CmpGe: return a >= b;
      default:
        panic("evalAlu on non-ALU opcode ", opcodeName(op));
    }
}

/**
 * Execute @p f to completion.
 *
 * @param f       verified IR function.
 * @param args    one value per f.params() register.
 * @param mem     data memory, mutated in place.
 * @param max_steps safety fuel; exceeding it raises FatalError.
 */
StRunResult interpret(const Function &f, const std::vector<int64_t> &args,
                      MemoryImage &mem, uint64_t max_steps = 500'000'000);

} // namespace gmt

#endif // GMT_RUNTIME_INTERPRETER_HPP
