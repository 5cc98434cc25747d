#include "ir/function.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gmt
{

BlockId
Function::addBlock(const std::string &label)
{
    BlockId id = static_cast<BlockId>(blocks_.size());
    blocks_.emplace_back(id, label);
    if (entry_ == kNoBlock)
        entry_ = id;
    return id;
}

InstrId
Function::append(BlockId b, Instr instr)
{
    return insertAt(b, static_cast<int>(blocks_[b].size()), instr);
}

InstrId
Function::insertAt(BlockId b, int pos, Instr instr)
{
    GMT_ASSERT(b >= 0 && b < numBlocks());
    GMT_ASSERT(pos >= 0 && pos <= static_cast<int>(blocks_[b].size()));
    InstrId id = static_cast<InstrId>(instrs_.size());
    instr.block = b;
    instrs_.push_back(instr);
    auto &list = blocks_[b].instrs_;
    list.insert(list.begin() + pos, id);
    // Track register space for registers introduced directly.
    for (Reg r : {instr.dst, instr.src1, instr.src2}) {
        if (r != kNoReg)
            ensureRegs(r + 1);
    }
    return id;
}

void
Function::setSuccs(BlockId b, std::vector<BlockId> succs)
{
    GMT_ASSERT(b >= 0 && b < numBlocks());
    // Detach old edges.
    for (BlockId s : blocks_[b].succs_) {
        auto &preds = blocks_[s].preds_;
        preds.erase(std::remove(preds.begin(), preds.end(), b),
                    preds.end());
    }
    for (BlockId s : succs) {
        GMT_ASSERT(s >= 0 && s < numBlocks());
        blocks_[s].preds_.push_back(b);
    }
    blocks_[b].succs_ = std::move(succs);
}

BlockId
Function::exitBlock() const
{
    for (const auto &bb : blocks_) {
        InstrId t = bb.terminator();
        if (t != kNoInstr && instrs_[t].op == Opcode::Ret)
            return bb.id();
    }
    return kNoBlock;
}

int
Function::positionOf(InstrId i) const
{
    const auto &list = blocks_[instrs_[i].block].instrs();
    auto it = std::find(list.begin(), list.end(), i);
    GMT_ASSERT(it != list.end(), "instruction not in its block");
    return static_cast<int>(it - list.begin());
}

ProgramPoint
Function::pointBefore(InstrId i) const
{
    return {instrs_[i].block, positionOf(i)};
}

Reg
Function::newReg()
{
    return num_regs_++;
}

void
Function::ensureRegs(int n)
{
    num_regs_ = std::max(num_regs_, n);
}

Reg
Function::defOf(InstrId i) const
{
    const Instr &instr = instrs_[i];
    return instr.hasDest() ? instr.dst : kNoReg;
}

} // namespace gmt
