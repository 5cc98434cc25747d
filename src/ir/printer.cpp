#include "ir/printer.hpp"

#include <ostream>
#include <sstream>

namespace gmt
{

namespace
{

std::string
regName(Reg r)
{
    return r == kNoReg ? std::string("_")
                       : std::string("r").append(std::to_string(r));
}

} // namespace

std::string
instrToString(const Function &f, InstrId i)
{
    const Instr &in = f.instr(i);
    std::ostringstream os;
    switch (in.op) {
      case Opcode::Const:
        os << regName(in.dst) << " = const " << in.imm;
        break;
      case Opcode::Load:
        os << regName(in.dst) << " = load [" << regName(in.src1) << "+"
           << in.imm << "] !alias" << in.alias;
        break;
      case Opcode::Store:
        os << "store [" << regName(in.src1) << "+" << in.imm
           << "] = " << regName(in.src2) << " !alias" << in.alias;
        break;
      case Opcode::Br:
        os << "br " << regName(in.src1);
        for (BlockId s : f.block(in.block).succs())
            os << " " << f.block(s).label();
        break;
      case Opcode::Jmp:
        os << "jmp";
        for (BlockId s : f.block(in.block).succs())
            os << " " << f.block(s).label();
        break;
      case Opcode::Ret: {
        os << "ret";
        for (Reg r : f.liveOuts())
            os << " " << regName(r);
        break;
      }
      case Opcode::Produce:
        os << "produce [q" << in.queue << "] = " << regName(in.src1);
        break;
      case Opcode::Consume:
        os << regName(in.dst) << " = consume [q" << in.queue << "]";
        break;
      case Opcode::ProduceSync:
        os << "produce.sync [q" << in.queue << "]";
        break;
      case Opcode::ConsumeSync:
        os << "consume.sync [q" << in.queue << "]";
        break;
      default: {
        os << regName(in.dst) << " = " << opcodeName(in.op);
        int n = numSrcs(in.op);
        if (n >= 1)
            os << " " << regName(in.src1);
        if (n >= 2)
            os << ", " << regName(in.src2);
        break;
      }
    }
    if (in.origin != kNoInstr)
        os << "  ; from i" << in.origin;
    return os.str();
}

void
printFunction(const Function &f, std::ostream &os)
{
    os << "func @" << f.name() << "(";
    for (size_t i = 0; i < f.params().size(); ++i) {
        if (i)
            os << ", ";
        os << regName(f.params()[i]);
    }
    // The register count is part of the form: registers are an arena,
    // not derivable from the instruction text when some are unused, and
    // parse(print(f)) must reproduce numRegs() exactly.
    os << ") regs " << f.numRegs() << " {\n";
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const BasicBlock &bb = f.block(b);
        os << bb.label() << ":";
        if (b == f.entry())
            os << "  ; entry";
        os << "\n";
        for (InstrId i : bb.instrs())
            os << "    " << instrToString(f, i) << "\n";
    }
    os << "}\n";
}

std::string
functionToString(const Function &f)
{
    std::ostringstream os;
    printFunction(f, os);
    return os.str();
}

} // namespace gmt
