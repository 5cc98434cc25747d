#include "sim/decoded_program.hpp"

#include "support/error.hpp"

namespace gmt
{

namespace
{

LatClass
latClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Mul:
        return LatClass::Mul;
      case Opcode::Div:
      case Opcode::Rem:
        return LatClass::Div;
      default:
        return LatClass::Alu;
    }
}

} // namespace

DecodedThread
decodeThread(const Function &f)
{
    DecodedThread t;
    t.num_regs = f.numRegs();
    t.params = f.params();
    t.live_outs = f.liveOuts();

    // First decoded index of each block (blocks laid out in id order,
    // instructions in block order, so in-block flow is index+1).
    std::vector<int32_t> block_start(f.numBlocks(), -1);
    int32_t n = 0;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        block_start[b] = n;
        n += static_cast<int32_t>(f.block(b).instrs().size());
    }
    t.code.reserve(n);
    t.block_of.reserve(n);
    t.num_blocks = f.numBlocks();
    t.entry = block_start[f.entry()];

    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        for (InstrId id : f.block(b).instrs()) {
            const Instr &in = f.instr(id);
            DecodedInstr d;
            d.op = in.op;
            d.nsrc = static_cast<uint8_t>(numSrcs(in.op));
            d.lat = latClassOf(in.op);
            d.mem_port = usesMemoryPort(in.op);
            d.stat = statClassOf(in.op, in.duplicated);
            d.dst = in.dst;
            d.src1 = in.src1;
            d.src2 = in.src2;
            d.queue = in.queue;
            d.imm = in.imm;
            switch (in.op) {
              case Opcode::Jmp:
                GMT_ASSERT(f.block(b).succs().size() == 1);
                d.next = block_start[f.block(b).succs()[0]];
                break;
              case Opcode::Br:
                GMT_ASSERT(f.block(b).succs().size() == 2);
                d.next = block_start[f.block(b).succs()[0]];
                d.br_not = block_start[f.block(b).succs()[1]];
                break;
              default:
                break;
            }
            t.code.push_back(d);
            t.block_of.push_back(b);
        }
    }
    GMT_ASSERT(static_cast<int32_t>(t.code.size()) == n);
    return t;
}

DecodedProgram
decodeProgram(const MtProgram &prog)
{
    DecodedProgram dp;
    dp.num_queues = prog.num_queues;
    dp.queue_capacity = prog.queue_capacity;
    dp.threads.reserve(prog.threads.size());
    for (const Function &f : prog.threads)
        dp.threads.push_back(decodeThread(f));
    return dp;
}

} // namespace gmt
