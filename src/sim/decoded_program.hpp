#ifndef GMT_SIM_DECODED_PROGRAM_HPP
#define GMT_SIM_DECODED_PROGRAM_HPP

/**
 * @file
 * Pre-decoded instruction streams, the only program form the timing
 * simulator runs: each thread of an MtProgram is flattened into one
 * dense array of DecodedInstr records with the per-issue work hoisted
 * to decode time — operand count, latency class, memory-port flag,
 * ThreadStats count class, and the decoded successor indices of
 * Br/Jmp terminators — so the simulator's inner loop is a flat array
 * walk instead of chasing Function -> BasicBlock -> instrs()[pos] ->
 * Instr on every issue attempt. Both simulator engines read the same
 * decode, so an engine comparison cannot catch a decode bug;
 * tests/test_sim_fast.cpp re-derives every record from its Function
 * instead.
 *
 * Decoding is purely structural: a DecodedProgram is independent of
 * the MachineConfig (latency *classes*, not latencies, are recorded),
 * so one decode serves every point of a machine-parameter sweep. The
 * driver caches DecodedArtifacts under the program's cache key for
 * exactly this reason (see pass_manager.cpp).
 */

#include <cstdint>
#include <vector>

#include "ir/function.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Latency class of a non-memory instruction (machine-independent). */
enum class LatClass : uint8_t { Alu, Mul, Div };

/** One flattened instruction. Plain data, hot-loop friendly. */
struct DecodedInstr
{
    Opcode op = Opcode::Const;
    uint8_t nsrc = 0;        ///< numSrcs(op), hoisted
    LatClass lat = LatClass::Alu;
    bool mem_port = false;   ///< usesMemoryPort(op), hoisted
    StatClass stat = StatClass::Computation; ///< statClassOf, hoisted

    Reg dst = kNoReg;
    Reg src1 = kNoReg;
    Reg src2 = kNoReg;
    QueueId queue = kNoQueue;
    int64_t imm = 0;

    /**
     * Decoded control flow. Non-terminators fall through to index+1
     * (blocks are laid out contiguously). Jmp jumps to @c next; Br
     * goes to @c next when taken (src1 != 0) and @c br_not otherwise.
     */
    int32_t next = -1;
    int32_t br_not = -1;
};

/** One thread, flattened. */
struct DecodedThread
{
    std::vector<DecodedInstr> code;
    int32_t entry = 0;            ///< index of the entry block's first instr
    int num_regs = 0;
    std::vector<Reg> params;
    std::vector<Reg> live_outs;

    /**
     * Source basic block of each decoded index (parallel to @c code).
     * Cold data — the issue loop never reads it; the stall profiler
     * uses it to attribute a blocked instruction back to its block.
     */
    std::vector<BlockId> block_of;
    int num_blocks = 0;
};

/** A whole MtProgram, ready for the simulator. */
struct DecodedProgram
{
    std::vector<DecodedThread> threads;
    int num_queues = 0;
    int queue_capacity = 32;
};

/** Flatten one function (block order preserved; see file comment). */
DecodedThread decodeThread(const Function &f);

/** Flatten every thread of @p prog. */
DecodedProgram decodeProgram(const MtProgram &prog);

} // namespace gmt

#endif // GMT_SIM_DECODED_PROGRAM_HPP
