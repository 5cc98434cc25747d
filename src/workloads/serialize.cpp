#include "workloads/serialize.hpp"

#include <climits>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/text.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

void
writeArgs(TextWriter &w, std::string_view key,
          const std::vector<int64_t> &args)
{
    w << key;
    for (int64_t a : args)
        w << ' ' << a;
    w << '\n';
}

void
writeMem(TextWriter &w, std::string_view key, const MemPairs &pairs)
{
    for (const auto &[addr, val] : pairs)
        w << key << ' ' << addr << ' ' << val << '\n';
}

template <typename... Parts>
[[noreturn]] void
die(int line_no, const Parts &...what)
{
    fatal("gmt-cell parse error at line ", line_no, ": ", what...);
}

/** All of @p word as a decimal integer. */
bool
wordToInt(std::string_view word, int64_t *value)
{
    size_t used = 0;
    return parseInt(word, value, &used) == IntParse::Ok &&
           used == word.size();
}

/** The line's one remaining word; dies citing @p form otherwise. */
std::string_view
onlyWord(LineCursor &c, std::string_view form)
{
    std::string_view w = c.word();
    if (w.empty() || !c.word().empty())
        die(c.lineNo(), "expected '", form, "'");
    return w;
}

/** The line's one remaining word as an integer in [lo, hi]. */
int64_t
onlyInt(LineCursor &c, std::string_view form, int64_t lo, int64_t hi)
{
    int64_t v = 0;
    if (!wordToInt(onlyWord(c, form), &v) || v < lo || v > hi)
        die(c.lineNo(), "expected '", form, "'");
    return v;
}

std::vector<int64_t>
parseInts(LineCursor &c)
{
    std::vector<int64_t> vals;
    for (std::string_view w = c.word(); !w.empty(); w = c.word()) {
        if (!wordToInt(w, &vals.emplace_back()))
            die(c.lineNo(), "expected integers");
    }
    return vals;
}

} // namespace

MemPairs
materializeFill(const Workload &w, bool ref)
{
    MemPairs pairs;
    const MemoryImage mi = workloadMemory(w, ref);
    for (int64_t a = 0; a < mi.size(); ++a) {
        if (int64_t v = mi.read(a))
            pairs.emplace_back(a, v);
    }
    return pairs;
}

std::function<void(MemoryImage &, bool)>
fillFromPairs(MemPairs train, MemPairs ref)
{
    return [train = std::move(train),
            ref = std::move(ref)](MemoryImage &mi, bool is_ref) {
        for (const auto &[addr, val] : is_ref ? ref : train)
            mi.write(addr, val);
    };
}

uint64_t
fnv1a64(std::string_view s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hexDigest(uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

std::string
workloadToText(const Workload &w)
{
    std::string out;
    TextWriter tw(out);
    tw << "gmt-cell v1\n";
    tw << "name " << w.name << '\n';
    tw << "function " << w.function_name << '\n';
    tw << "exec " << w.exec_percent << '\n';
    tw << "cells " << w.mem_cells << '\n';
    writeArgs(tw, "train-args", w.train_args);
    writeArgs(tw, "ref-args", w.ref_args);
    writeMem(tw, "train-mem", materializeFill(w, /*ref=*/false));
    writeMem(tw, "ref-mem", materializeFill(w, /*ref=*/true));
    appendFunction(out, w.func);
    return out;
}

Workload
workloadFromText(std::string_view text, const std::string &source)
{
    Workload w;
    MemPairs train_mem, ref_mem;
    bool saw_magic = false, saw_name = false, saw_cells = false;

    // Metadata lines up to the `func` header, then the function body,
    // all from one reader so every error cites its line in the cell.
    LineReader lines(text, 1);
    while (lines.next()) {
        const std::string_view line = lines.line();
        const int line_no = lines.lineNo();

        if (line.starts_with("func ") || line.starts_with("func@")) {
            if (!saw_magic || !saw_name || !saw_cells)
                die(line_no, "function before name/cells metadata");
            w.func = parseFunction(lines);
            // Nothing but blank lines may follow the function.
            const int after = lines.lineNo() + 1;
            while (lines.next()) {
                if (lines.line().find_first_not_of(' ') !=
                    std::string_view::npos)
                    die(after, "text after the function body");
            }
            if (w.function_name.empty())
                w.function_name = w.func.name();
            else if (w.function_name != w.func.name())
                die(line_no, "'function ", w.function_name,
                    "' does not match '@", w.func.name(), "'");

            verifyOrDie(w.func, {},
                        "gmt-cell " + w.name + ", function at line " +
                            std::to_string(line_no));

            w.fill = fillFromPairs(std::move(train_mem),
                                   std::move(ref_mem));
            w.source = source;
            w.digest = hexDigest(fnv1a64(workloadToText(w)));
            return w;
        }

        LineCursor c(line, line_no);
        const std::string_view key = c.word();
        if (key.empty()) {
            // blank line
        } else if (key == "gmt-cell") {
            std::string_view ver = c.word();
            if (ver != "v1")
                die(line_no, "unsupported version '", ver, "'");
            if (!c.word().empty())
                die(line_no, "expected 'gmt-cell v1'");
            saw_magic = true;
        } else if (!saw_magic) {
            die(line_no, "missing 'gmt-cell v1' header");
        } else if (key == "name") {
            std::string_view name = c.word();
            if (name.empty())
                die(line_no, "empty name");
            if (!c.word().empty())
                die(line_no, "expected 'name NAME'");
            w.name = name;
            saw_name = true;
        } else if (key == "function") {
            w.function_name = onlyWord(c, "function NAME");
        } else if (key == "exec") {
            w.exec_percent = static_cast<int>(
                onlyInt(c, "exec PERCENT", INT_MIN, INT_MAX));
        } else if (key == "cells") {
            if (saw_cells)
                die(line_no, "duplicate 'cells' line");
            w.mem_cells = onlyInt(c, "cells COUNT", INT64_MIN, INT64_MAX);
            if (w.mem_cells < 0)
                die(line_no, "negative cells");
            if (w.mem_cells > kMaxTextCells)
                die(line_no, "cells ", w.mem_cells, " above the limit ",
                    kMaxTextCells);
            saw_cells = true;
        } else if (key == "train-args") {
            w.train_args = parseInts(c);
        } else if (key == "ref-args") {
            w.ref_args = parseInts(c);
        } else if (key == "train-mem" || key == "ref-mem") {
            int64_t addr = 0, val = 0;
            if (!wordToInt(c.word(), &addr) || !wordToInt(c.word(), &val) ||
                !c.word().empty())
                die(line_no, "expected '", key, " ADDR VALUE'");
            if (addr < 0 || addr >= w.mem_cells)
                die(line_no, "address ", addr, " outside 0..",
                    w.mem_cells - 1);
            (key[0] == 't' ? train_mem : ref_mem).emplace_back(addr, val);
        } else {
            die(line_no, "unknown key '", key, "'");
        }
    }
    die(lines.lineNo(), "no 'func @...' body in ", source);
}

Workload
loadWorkloadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open workload cell '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return workloadFromText(buf.str(), path);
}

void
saveWorkloadFile(const Workload &w, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write workload cell '", path, "'");
    out << workloadToText(w);
    out.flush();
    if (!out)
        fatal("write failed for workload cell '", path, "'");
}

} // namespace gmt
