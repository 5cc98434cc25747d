#include "runtime/interpreter.hpp"

#include "support/error.hpp"

namespace gmt
{

uint64_t
ProfileData::edgeCount(BlockId from, int succ_slot) const
{
    if (from < 0 || from >= static_cast<BlockId>(edge_counts.size()))
        return 0;
    const auto &slots = edge_counts[from];
    if (succ_slot < 0 || succ_slot >= static_cast<int>(slots.size()))
        return 0;
    return slots[succ_slot];
}

StRunResult
interpret(const Function &f, const std::vector<int64_t> &args,
          MemoryImage &mem, uint64_t max_steps)
{
    if (args.size() != f.params().size())
        fatal("interpret: expected ", f.params().size(), " args, got ",
              args.size());

    StRunResult result;
    result.profile.block_counts.assign(f.numBlocks(), 0);
    result.profile.edge_counts.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        result.profile.edge_counts[b].assign(f.block(b).succs().size(),
                                             0);
    }

    std::vector<int64_t> regs(f.numRegs(), 0);
    for (size_t i = 0; i < args.size(); ++i)
        regs[f.params()[i]] = args[i];

    BlockId cur = f.entry();
    while (true) {
        ++result.profile.block_counts[cur];
        const BasicBlock &bb = f.block(cur);
        int next_slot = -1;
        for (InstrId id : bb.instrs()) {
            if (++result.dyn_instrs > max_steps)
                fatal("interpret: step limit exceeded in @", f.name());
            const Instr &in = f.instr(id);
            switch (in.op) {
              case Opcode::Load:
                regs[in.dst] = mem.read(regs[in.src1] + in.imm);
                break;
              case Opcode::Store:
                mem.write(regs[in.src1] + in.imm, regs[in.src2]);
                break;
              case Opcode::Br:
                next_slot = (regs[in.src1] != 0) ? 0 : 1;
                break;
              case Opcode::Jmp:
                next_slot = 0;
                break;
              case Opcode::Ret: {
                for (Reg r : f.liveOuts())
                    result.live_outs.push_back(regs[r]);
                return result;
              }
              case Opcode::Produce:
              case Opcode::Consume:
              case Opcode::ProduceSync:
              case Opcode::ConsumeSync:
                fatal("interpret: communication instruction in "
                      "single-threaded code");
              default:
                regs[in.dst] = evalAlu(in.op, in.src1 != kNoReg
                                                  ? regs[in.src1]
                                                  : 0,
                                       in.src2 != kNoReg ? regs[in.src2]
                                                         : 0,
                                       in.imm);
                break;
            }
        }
        GMT_ASSERT(next_slot >= 0, "block fell through without terminator");
        ++result.profile.edge_counts[cur][next_slot];
        cur = bb.succs()[next_slot];
    }
}

} // namespace gmt
