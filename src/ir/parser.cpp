#include "ir/parser.hpp"

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace gmt
{

namespace
{

constexpr int kNumOpcodes = static_cast<int>(Opcode::ConsumeSync) + 1;

/** Mnemonic -> opcode over a flat table built from opcodeName. */
bool
lookupOpcode(std::string_view name, Opcode *op)
{
    static const std::array<std::string_view, kNumOpcodes> names = [] {
        std::array<std::string_view, kNumOpcodes> t{};
        for (int v = 0; v < kNumOpcodes; ++v)
            t[v] = opcodeName(static_cast<Opcode>(v));
        return t;
    }();
    for (int v = 0; v < kNumOpcodes; ++v) {
        if (names[v] == name) {
            *op = static_cast<Opcode>(v);
            return true;
        }
    }
    return false;
}

bool
isBlank(std::string_view line)
{
    return line.find_first_not_of(' ') == std::string_view::npos;
}

/** A LineCursor whose failures are IR parse errors citing the line. */
class IrLine : public LineCursor
{
  public:
    using LineCursor::LineCursor;

    template <typename... Parts>
    [[noreturn]] void
    die(const Parts &...what) const
    {
        fatal("IR parse error at line ", lineNo(), ": ", what..., " in '",
              line(), "'");
    }

    /** Consume @p lit (after skipping spaces) or die. */
    void
    expect(std::string_view lit)
    {
        if (!tryConsume(lit))
            die("expected '", lit, "'");
    }

    std::string_view
    nextToken()
    {
        std::string_view t = token();
        if (t.empty())
            die("expected a token");
        return t;
    }

    std::string_view
    peekToken() const
    {
        IrLine ahead = *this;
        return ahead.nextToken();
    }

    int64_t
    integer()
    {
        int64_t v = 0;
        switch (LineCursor::integer(&v)) {
          case IntParse::Ok:
            return v;
          case IntParse::NoDigits:
            die("expected an integer");
          case IntParse::OutOfRange:
            break;
        }
        die("integer out of range");
    }

    /** An integer that must fit an int32 field. */
    int32_t
    integer32()
    {
        int64_t v = integer();
        if (v < INT32_MIN || v > INT32_MAX)
            die("integer out of range");
        return static_cast<int32_t>(v);
    }

    /** `rN` or `_` (= kNoReg). */
    Reg
    reg()
    {
        skipSpaces();
        if (tryConsume("_"))
            return kNoReg;
        expect("r");
        int64_t n = integer();
        if (n < 0)
            die("negative register number");
        if (n >= kMaxTextRegs)
            die("register number out of range");
        return static_cast<Reg>(n);
    }

    /** `[rA+IMM]` into @p in's src1 and imm. */
    void
    address(Instr &in)
    {
        expect("[");
        in.src1 = reg();
        expect("+");
        in.imm = integer();
        expect("]");
    }

    /** `[qN]`. */
    QueueId
    queue()
    {
        expect("[");
        expect("q");
        QueueId q = integer32();
        expect("]");
        return q;
    }

    AliasClass
    alias()
    {
        expect("!alias");
        return integer32();
    }
};

/** A `br` or `jmp` whose target labels resolve once all blocks exist. */
struct PendingSuccs
{
    BlockId block = kNoBlock;
    std::array<std::string_view, 2> labels;
    int num_labels = 0;
    int line_no = 0;
};

/**
 * Strip a trailing `; from iN` origin annotation (returns the origin)
 * and any plain trailing comment from an instruction line.
 */
std::string_view
stripOrigin(std::string_view line, int line_no, InstrId *origin)
{
    *origin = kNoInstr;
    size_t semi = line.find(';');
    if (semi == std::string_view::npos)
        return line;
    IrLine c(line.substr(semi + 1), line_no);
    if (c.tryConsume("from")) {
        c.expect("i");
        *origin = c.integer32();
    }
    // Trim the comment and trailing spaces off the code part.
    size_t end = semi;
    while (end > 0 && line[end - 1] == ' ')
        --end;
    return line.substr(0, end);
}

/** Parse one instruction line into @p in and append it to @p b. */
void
parseInstr(IrLine &c, Function &f, BlockId b, Instr in,
           std::vector<PendingSuccs> &pending, bool &saw_ret)
{
    std::string_view tok = c.peekToken();
    if (tok == "store") {
        c.expect("store");
        in.op = Opcode::Store;
        c.address(in);
        c.expect("=");
        in.src2 = c.reg();
        in.alias = c.alias();
    } else if (tok == "br") {
        c.expect("br");
        in.op = Opcode::Br;
        in.src1 = c.reg();
        PendingSuccs ps{b, {}, 2, c.lineNo()};
        ps.labels[0] = c.nextToken();
        ps.labels[1] = c.nextToken();
        pending.push_back(ps);
    } else if (tok == "jmp") {
        c.expect("jmp");
        in.op = Opcode::Jmp;
        PendingSuccs ps{b, {}, 1, c.lineNo()};
        ps.labels[0] = c.nextToken();
        pending.push_back(ps);
    } else if (tok == "ret") {
        c.expect("ret");
        in.op = Opcode::Ret;
        std::vector<Reg> outs;
        while (!c.atEnd())
            outs.push_back(c.reg());
        if (saw_ret && !outs.empty() && outs != f.liveOuts())
            c.die("ret live-out lists disagree");
        if (!saw_ret)
            f.setLiveOuts(std::move(outs));
        saw_ret = true;
    } else if (tok == "produce") {
        c.expect("produce");
        in.op = Opcode::Produce;
        in.queue = c.queue();
        c.expect("=");
        in.src1 = c.reg();
    } else if (tok == "produce.sync") {
        c.expect("produce.sync");
        in.op = Opcode::ProduceSync;
        in.queue = c.queue();
    } else if (tok == "consume.sync") {
        c.expect("consume.sync");
        in.op = Opcode::ConsumeSync;
        in.queue = c.queue();
    } else {
        // `dst = rhs` forms.
        in.dst = c.reg();
        c.expect("=");
        std::string_view rhs = c.nextToken();
        if (rhs == "const") {
            in.op = Opcode::Const;
            in.imm = c.integer();
        } else if (rhs == "load") {
            in.op = Opcode::Load;
            c.address(in);
            in.alias = c.alias();
        } else if (rhs == "consume") {
            in.op = Opcode::Consume;
            in.queue = c.queue();
        } else {
            if (!lookupOpcode(rhs, &in.op))
                c.die("unknown opcode '", rhs, "'");
            int n = numSrcs(in.op);
            if (n >= 1)
                in.src1 = c.reg();
            if (n >= 2) {
                c.expect(",");
                in.src2 = c.reg();
            }
        }
    }
    f.append(b, in);
    if (!c.atEnd())
        c.die("trailing junk");
}

} // namespace

Function
parseFunction(LineReader &lines)
{
    // Header: func @name(r0, r1) regs N {
    while (isBlank(lines.line())) {
        if (!lines.next())
            fatal("IR parse error at line ", lines.lineNo(),
                  ": expected 'func @...'");
    }
    const int header_no = lines.lineNo();
    IrLine header(lines.line(), header_no);
    header.expect("func");
    header.expect("@");
    Function f{std::string(header.nextToken())};
    const std::string &name = f.name();
    header.expect("(");
    if (!header.tryConsume(")")) {
        for (;;) {
            Reg p = header.reg();
            if (p == kNoReg)
                header.die("'_' is not a valid parameter");
            f.ensureRegs(p + 1);
            f.addParam(p);
            if (header.tryConsume(")"))
                break;
            header.expect(",");
        }
    }
    int64_t declared_regs = -1;
    if (header.tryConsume("regs")) {
        declared_regs = header.integer();
        if (declared_regs < 0 || declared_regs > kMaxTextRegs)
            header.die("register count out of range");
    }
    header.expect("{");

    BlockId current = kNoBlock;
    BlockId entry = kNoBlock;
    // Per block, in id order: its label in the text and its line.
    std::vector<std::string_view> labels;
    std::vector<int> label_lines;
    std::vector<PendingSuccs> pending;
    bool closed = false;
    bool saw_ret = false;

    while (lines.next()) {
        std::string_view raw = lines.line();
        const int no = lines.lineNo();
        size_t first = raw.find_first_not_of(' ');
        if (first == std::string_view::npos)
            continue;
        if (raw.substr(first) == "}") {
            closed = true;
            break;
        }

        InstrId origin = kNoInstr;
        std::string_view line = stripOrigin(raw, no, &origin);

        // Block header: `label:` (optionally with the entry marker,
        // already stripped with the comment).
        size_t colon = line.find(':');
        if (first == 0 && colon != std::string_view::npos) {
            std::string_view label = line.substr(0, colon);
            if (label.empty() || label.find(' ') != std::string_view::npos)
                IrLine(raw, no).die("bad block label");
            current = f.addBlock(std::string(label));
            labels.push_back(label);
            label_lines.push_back(no);
            // The entry marker travels in the comment the origin
            // stripper removed; re-check the raw line.
            if (raw.find("; entry") != std::string_view::npos)
                entry = current;
            continue;
        }

        if (current == kNoBlock)
            IrLine(raw, no).die("instruction before the first block label");

        IrLine c(line, no);
        Instr in;
        in.origin = origin;
        parseInstr(c, f, current, in, pending, saw_ret);
    }

    if (!closed)
        fatal("IR parse error at line ", lines.lineNo(),
              ": missing closing '}' for @", name);

    // Resolve branch targets now that every block exists.
    std::unordered_map<std::string_view, BlockId> by_label;
    by_label.reserve(labels.size());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        if (!by_label.emplace(labels[b], b).second)
            fatal("IR parse error at line ", label_lines[b],
                  ": duplicate block label '", labels[b], "' in @", name);
    }
    for (const PendingSuccs &ps : pending) {
        std::vector<BlockId> succs;
        for (int k = 0; k < ps.num_labels; ++k) {
            auto it = by_label.find(ps.labels[k]);
            if (it == by_label.end())
                fatal("IR parse error at line ", ps.line_no,
                      ": unknown branch target '", ps.labels[k], "' in @",
                      name);
            succs.push_back(it->second);
        }
        f.setSuccs(ps.block, std::move(succs));
    }

    if (f.numBlocks() == 0)
        fatal("IR parse error at line ", lines.lineNo(), ": function @",
              name, " has no blocks");
    f.setEntry(entry != kNoBlock ? entry : 0);

    if (declared_regs >= 0) {
        if (declared_regs < f.numRegs())
            fatal("IR parse error at line ", header_no, ": @", name,
                  " declares regs ", declared_regs,
                  " but the text references ", f.numRegs());
        f.ensureRegs(static_cast<int>(declared_regs));
    }
    return f;
}

Function
parseFunction(std::string_view text)
{
    LineReader lines(text, 1);
    Function f = parseFunction(lines);
    // Anything after the closing brace must be blank.
    while (lines.next()) {
        if (!isBlank(lines.line()))
            fatal("IR parse error at line ", lines.lineNo(),
                  ": text after closing '}'");
    }
    return f;
}

} // namespace gmt
