#ifndef GMT_IR_FUNCTION_HPP
#define GMT_IR_FUNCTION_HPP

/**
 * @file
 * Function: the unit the scheduler parallelizes — a single-entry,
 * single-exit CFG of basic blocks over virtual registers, with declared
 * live-in parameters and live-out registers.
 */

#include <string>
#include <vector>

#include "ir/basic_block.hpp"
#include "ir/instr.hpp"
#include "support/error.hpp"

namespace gmt
{

/**
 * A point in a function's original CFG: immediately before the
 * instruction at position @c pos of block @c block. @c pos may equal
 * the block's size only transiently during insertion; analyses use
 * points in [0, size].
 */
struct ProgramPoint
{
    BlockId block = kNoBlock;
    int pos = 0;

    bool operator==(const ProgramPoint &) const = default;
    auto operator<=>(const ProgramPoint &) const = default;
};

/**
 * The registers one instruction reads, as a view that allocates
 * nothing: the source operands numSrcs() names (kNoReg skipped), held
 * inline, or the function's live-out list for Ret. A Ret view points
 * into its Function and is valid while the live-outs are unchanged.
 */
class UseList
{
  public:
    const Reg *begin() const { return ext_ ? ext_ : inline_; }
    const Reg *end() const { return begin() + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Reg operator[](size_t k) const { return begin()[k]; }

  private:
    friend class Function;

    Reg inline_[2] = {kNoReg, kNoReg};
    const Reg *ext_ = nullptr;
    size_t size_ = 0;
};

/**
 * Single-entry single-exit CFG over virtual registers.
 *
 * Instructions live in an arena indexed by InstrId; their order within
 * a block is the block's instrs() list. Register 0..numRegs()-1 are
 * all virtual registers; params() are initialized from the input
 * vector at execution, liveOuts() are the observable results.
 */
class Function
{
  public:
    explicit Function(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    // --- structure -------------------------------------------------

    /** Append a new empty block. */
    BlockId addBlock(const std::string &label);

    /** Append an instruction to a block. @return its InstrId. */
    InstrId append(BlockId b, Instr instr);

    /** Insert an instruction before position @p pos in block @p b. */
    InstrId insertAt(BlockId b, int pos, Instr instr);

    /**
     * Set a block's successor list (call once the terminator is in
     * place; Br takes two successors, Jmp one, Ret none).
     */
    void setSuccs(BlockId b, std::vector<BlockId> succs);

    BlockId entry() const { return entry_; }
    void setEntry(BlockId b) { entry_ = b; }

    /** The unique block terminated by Ret (set by the verifier). */
    BlockId exitBlock() const;

    // --- access ----------------------------------------------------

    int numBlocks() const { return static_cast<int>(blocks_.size()); }
    int numInstrs() const { return static_cast<int>(instrs_.size()); }

    const BasicBlock &
    block(BlockId b) const
    {
        GMT_ASSERT(b >= 0 && b < numBlocks(), "bad block id ", b);
        return blocks_[b];
    }

    BasicBlock &
    block(BlockId b)
    {
        GMT_ASSERT(b >= 0 && b < numBlocks(), "bad block id ", b);
        return blocks_[b];
    }

    const Instr &
    instr(InstrId i) const
    {
        GMT_ASSERT(i >= 0 && i < numInstrs(), "bad instr id ", i);
        return instrs_[i];
    }

    Instr &
    instr(InstrId i)
    {
        GMT_ASSERT(i >= 0 && i < numInstrs(), "bad instr id ", i);
        return instrs_[i];
    }

    /** Position of @p i within its block (linear scan). */
    int positionOf(InstrId i) const;

    /** The program point immediately before instruction @p i. */
    ProgramPoint pointBefore(InstrId i) const;

    // --- registers -------------------------------------------------

    /** Allocate a fresh virtual register. */
    Reg newReg();

    int numRegs() const { return num_regs_; }

    /** Grow the register space to at least @p n registers. */
    void ensureRegs(int n);

    const std::vector<Reg> &params() const { return params_; }
    void addParam(Reg r) { params_.push_back(r); }

    const std::vector<Reg> &liveOuts() const { return live_outs_; }
    void setLiveOuts(std::vector<Reg> regs) { live_outs_ = std::move(regs); }

    /**
     * Registers read by instruction @p i, including the live-out set
     * for Ret (live-outs are "used" by leaving the region).
     */
    UseList
    usesOf(InstrId i) const
    {
        const Instr &instr = instrs_[i];
        UseList uses;
        if (instr.op == Opcode::Ret) {
            uses.ext_ = live_outs_.data();
            uses.size_ = live_outs_.size();
            return uses;
        }
        // Store addresses live in src1, the stored value in src2.
        int n = numSrcs(instr.op);
        if (n >= 1 && instr.src1 != kNoReg)
            uses.inline_[uses.size_++] = instr.src1;
        if (n >= 2 && instr.src2 != kNoReg)
            uses.inline_[uses.size_++] = instr.src2;
        return uses;
    }

    /** Destination register of @p i, or kNoReg. */
    Reg defOf(InstrId i) const;

  private:
    std::string name_;
    std::vector<BasicBlock> blocks_;
    std::vector<Instr> instrs_;
    BlockId entry_ = kNoBlock;
    int num_regs_ = 0;
    std::vector<Reg> params_;
    std::vector<Reg> live_outs_;
};

} // namespace gmt

#endif // GMT_IR_FUNCTION_HPP
