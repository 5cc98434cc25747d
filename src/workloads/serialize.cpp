#include "workloads/serialize.hpp"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

void
emitArgs(std::ostringstream &os, const char *key,
         const std::vector<int64_t> &args)
{
    os << key;
    for (int64_t a : args)
        os << " " << a;
    os << "\n";
}

void
emitMem(std::ostringstream &os, const char *key, const MemPairs &pairs)
{
    for (const auto &[addr, val] : pairs)
        os << key << " " << addr << " " << val << "\n";
}

std::vector<int64_t>
parseInts(std::istringstream &rest, int line_no)
{
    std::vector<int64_t> vals;
    int64_t v;
    while (rest >> v)
        vals.push_back(v);
    if (!rest.eof())
        fatal("gmt-cell parse error at line ", line_no,
              ": expected integers");
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
    std::ostringstream os;
    os << "gmt-cell v1\n";
    os << "name " << w.name << "\n";
    os << "function " << w.function_name << "\n";
    os << "exec " << w.exec_percent << "\n";
    os << "cells " << w.mem_cells << "\n";
    emitArgs(os, "train-args", w.train_args);
    emitArgs(os, "ref-args", w.ref_args);
    emitMem(os, "train-mem", materializeFill(w, /*ref=*/false));
    emitMem(os, "ref-mem", materializeFill(w, /*ref=*/true));
    printFunction(w.func, os);
    return os.str();
}

Workload
workloadFromText(std::string_view text, const std::string &source)
{
    Workload w;
    MemPairs train_mem, ref_mem;
    bool saw_magic = false, saw_name = false, saw_cells = false;

    // Metadata lines up to the `func` header; the function body is
    // handed to the IR parser with the enclosing line number so its
    // errors point into the cell text.
    size_t start = 0;
    int line_no = 0;
    while (start <= text.size()) {
        size_t nl = text.find('\n', start);
        if (nl == std::string_view::npos)
            nl = text.size();
        std::string line(text.substr(start, nl - start));
        ++line_no;

        if (line.rfind("func ", 0) == 0 || line.rfind("func@", 0) == 0) {
            if (!saw_magic || !saw_name || !saw_cells)
                fatal("gmt-cell parse error at line ", line_no,
                      ": function before name/cells metadata");
            int used = 0;
            std::string_view body = text.substr(start);
            w.func = parseFunction(body, line_no, &used);
            // Nothing but blank lines may follow the function.
            size_t tail = 0;
            for (int i = 0; i < used; ++i) {
                size_t tnl = body.find('\n', tail);
                if (tnl == std::string_view::npos) {
                    tail = body.size();
                    break;
                }
                tail = tnl + 1;
            }
            if (body.find_first_not_of(" \n", tail) !=
                std::string_view::npos)
                fatal("gmt-cell parse error at line ", line_no + used,
                      ": text after the function body");
            if (w.function_name.empty())
                w.function_name = w.func.name();
            else if (w.function_name != w.func.name())
                fatal("gmt-cell parse error: 'function ",
                      w.function_name, "' does not match '@",
                      w.func.name(), "'");

            verifyOrDie(w.func, {}, "gmt-cell " + w.name);

            w.fill = fillFromPairs(std::move(train_mem),
                                   std::move(ref_mem));
            w.source = source;
            w.digest = hexDigest(fnv1a64(workloadToText(w)));
            return w;
        }

        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key.empty()) {
            // blank line
        } else if (key == "gmt-cell") {
            std::string ver;
            ls >> ver;
            if (ver != "v1")
                fatal("gmt-cell parse error at line ", line_no,
                      ": unsupported version '", ver, "'");
            saw_magic = true;
        } else if (!saw_magic) {
            fatal("gmt-cell parse error at line ", line_no,
                  ": missing 'gmt-cell v1' header");
        } else if (key == "name") {
            ls >> w.name;
            if (w.name.empty())
                fatal("gmt-cell parse error at line ", line_no,
                      ": empty name");
            saw_name = true;
        } else if (key == "function") {
            ls >> w.function_name;
        } else if (key == "exec") {
            ls >> w.exec_percent;
        } else if (key == "cells") {
            ls >> w.mem_cells;
            if (w.mem_cells < 0)
                fatal("gmt-cell parse error at line ", line_no,
                      ": negative cells");
            saw_cells = true;
        } else if (key == "train-args") {
            w.train_args = parseInts(ls, line_no);
        } else if (key == "ref-args") {
            w.ref_args = parseInts(ls, line_no);
        } else if (key == "train-mem" || key == "ref-mem") {
            int64_t addr, val;
            if (!(ls >> addr >> val))
                fatal("gmt-cell parse error at line ", line_no,
                      ": expected '", key, " ADDR VALUE'");
            if (addr < 0 || addr >= w.mem_cells)
                fatal("gmt-cell parse error at line ", line_no,
                      ": address ", addr, " outside 0..",
                      w.mem_cells - 1);
            (key[0] == 't' ? train_mem : ref_mem)
                .emplace_back(addr, val);
        } else {
            fatal("gmt-cell parse error at line ", line_no,
                  ": unknown key '", key, "'");
        }

        if (nl == text.size())
            break;
        start = nl + 1;
    }
    fatal("gmt-cell parse error: no 'func @...' body in ", source);
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
