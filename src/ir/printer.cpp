#include "ir/printer.hpp"

#include <ostream>

#include "ir/text.hpp"

namespace gmt
{

namespace
{

/** A register operand: `rN`, or `_` for kNoReg. */
struct RegText
{
    Reg r;
};

TextWriter &
operator<<(TextWriter &w, RegText reg)
{
    return reg.r == kNoReg ? w << '_' : w << 'r' << reg.r;
}

void
writeSuccLabels(TextWriter &w, const Function &f, BlockId b)
{
    for (BlockId s : f.block(b).succs())
        w << ' ' << f.block(s).label();
}

void
writeInstr(TextWriter &w, const Function &f, InstrId i)
{
    const Instr &in = f.instr(i);
    switch (in.op) {
      case Opcode::Const:
        w << RegText{in.dst} << " = const " << in.imm;
        break;
      case Opcode::Load:
        w << RegText{in.dst} << " = load [" << RegText{in.src1} << '+'
          << in.imm << "] !alias" << in.alias;
        break;
      case Opcode::Store:
        w << "store [" << RegText{in.src1} << '+' << in.imm
          << "] = " << RegText{in.src2} << " !alias" << in.alias;
        break;
      case Opcode::Br:
        w << "br " << RegText{in.src1};
        writeSuccLabels(w, f, in.block);
        break;
      case Opcode::Jmp:
        w << "jmp";
        writeSuccLabels(w, f, in.block);
        break;
      case Opcode::Ret:
        w << "ret";
        for (Reg r : f.liveOuts())
            w << ' ' << RegText{r};
        break;
      case Opcode::Produce:
        w << "produce [q" << in.queue << "] = " << RegText{in.src1};
        break;
      case Opcode::Consume:
        w << RegText{in.dst} << " = consume [q" << in.queue << ']';
        break;
      case Opcode::ProduceSync:
        w << "produce.sync [q" << in.queue << ']';
        break;
      case Opcode::ConsumeSync:
        w << "consume.sync [q" << in.queue << ']';
        break;
      default: {
        w << RegText{in.dst} << " = " << opcodeName(in.op);
        int n = numSrcs(in.op);
        if (n >= 1)
            w << ' ' << RegText{in.src1};
        if (n >= 2)
            w << ", " << RegText{in.src2};
        break;
      }
    }
    if (in.origin != kNoInstr)
        w << "  ; from i" << in.origin;
}

} // namespace

std::string
instrToString(const Function &f, InstrId i)
{
    std::string out;
    TextWriter w(out);
    writeInstr(w, f, i);
    return out;
}

void
appendFunction(std::string &out, const Function &f)
{
    // About 32 bytes per instruction line; a guess only saves regrowth.
    out.reserve(out.size() + 64 + 16 * static_cast<size_t>(f.numBlocks()) +
                32 * static_cast<size_t>(f.numInstrs()));
    TextWriter w(out);
    w << "func @" << f.name() << '(';
    for (size_t i = 0; i < f.params().size(); ++i)
        w << (i ? ", " : "") << RegText{f.params()[i]};
    // The register count is part of the form: registers are an arena,
    // not derivable from the instruction text when some are unused, and
    // parse(print(f)) must reproduce numRegs() exactly.
    w << ") regs " << f.numRegs() << " {\n";
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const BasicBlock &bb = f.block(b);
        w << bb.label() << (b == f.entry() ? ":  ; entry\n" : ":\n");
        for (InstrId i : bb.instrs()) {
            w << "    ";
            writeInstr(w, f, i);
            w << '\n';
        }
    }
    w << "}\n";
}

void
printFunction(const Function &f, std::ostream &os)
{
    os << functionToString(f);
}

std::string
functionToString(const Function &f)
{
    std::string out;
    appendFunction(out, f);
    return out;
}

} // namespace gmt
