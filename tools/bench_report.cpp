/**
 * @file
 * bench_report: merge the per-bench BENCH_*.json records (flat
 * one-line JSON objects written by bench/micro_*) into one trend
 * table — wall-clock columns, the identical/fixpoint contract flags,
 * and the COCO cut-cache hit rates — so a CI run uploads a single
 * artifact that is diffable across commits.
 *
 *   bench_report [--out FILE] BENCH_sim.json BENCH_coco.json ...
 *
 * Prints the table to stdout; --out additionally writes a schema:1
 * JSON document ({"type":"bench-report","benches":[...]}) with every
 * numeric field of every input preserved. Inputs are flat JSON only
 * (string / number / true / false / null values); anything else is a
 * parse error, and a missing or malformed file fails the run (CI
 * treats that as the bench not having produced its numbers).
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace
{

using gmt::jsonEscape;

/** One parsed value of a flat JSON object. */
struct FlatValue
{
    enum class Kind { String, Number, Bool, Null } kind = Kind::Null;
    std::string str;
    double num = 0.0;
    bool b = false;
};

/** Insertion-ordered flat JSON object. */
struct FlatObject
{
    std::vector<std::pair<std::string, FlatValue>> fields;

    const FlatValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/** Minimal parser for the flat objects the benches emit. */
class FlatParser
{
  public:
    explicit FlatParser(const std::string &text) : s_(text) {}

    bool
    parse(FlatObject &out, std::string &err)
    {
        skipWs();
        if (!eat('{')) {
            err = "expected '{'";
            return false;
        }
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            std::string key;
            if (!parseString(key, err))
                return false;
            skipWs();
            if (!eat(':')) {
                err = "expected ':' after key " + key;
                return false;
            }
            FlatValue v;
            if (!parseValue(v, err))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (eat(','))  {
                skipWs();
                continue;
            }
            if (eat('}'))
                return true;
            err = "expected ',' or '}'";
            return false;
        }
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    eatWord(const char *w)
    {
        size_t n = std::strlen(w);
        if (s_.compare(pos_, n, w) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out, std::string &err)
    {
        skipWs();
        if (!eat('"')) {
            err = "expected string";
            return false;
        }
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                char e = s_[pos_++];
                switch (e) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                default: out += e; break;
                }
            } else {
                out += c;
            }
        }
        if (!eat('"')) {
            err = "unterminated string";
            return false;
        }
        return true;
    }

    bool
    parseValue(FlatValue &v, std::string &err)
    {
        skipWs();
        if (pos_ >= s_.size()) {
            err = "unexpected end of input";
            return false;
        }
        char c = s_[pos_];
        if (c == '"') {
            v.kind = FlatValue::Kind::String;
            return parseString(v.str, err);
        }
        if (eatWord("true")) {
            v.kind = FlatValue::Kind::Bool;
            v.b = true;
            return true;
        }
        if (eatWord("false")) {
            v.kind = FlatValue::Kind::Bool;
            v.b = false;
            return true;
        }
        if (eatWord("null")) {
            v.kind = FlatValue::Kind::Null;
            return true;
        }
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start) {
            err = std::string("unexpected character '") + c +
                  "' (nested objects/arrays are not flat)";
            return false;
        }
        v.kind = FlatValue::Kind::Number;
        v.num = std::atof(s_.substr(start, pos_ - start).c_str());
        return true;
    }

    std::string s_;
    size_t pos_ = 0;
};

/** One merged row of the trend table. */
struct BenchRow
{
    std::string file;
    std::string bench;
    int ok = -1; ///< identical/fixpoint flag; -1 = not reported
    double wall_ms = 0.0;
    double hit_rate = -1.0; ///< COCO cut-cache hit %; -1 = n/a
    FlatObject raw;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

BenchRow
summarize(const std::string &file, FlatObject obj)
{
    BenchRow row;
    row.file = file;
    if (const FlatValue *b = obj.find("bench"))
        row.bench = b->str;
    // The contract flag: every bench reports exactly one of these.
    for (const char *flag : {"identical", "fixpoint", "converged"})
        if (const FlatValue *v = obj.find(flag))
            if (v->kind == FlatValue::Kind::Bool)
                row.ok = v->b ? 1 : 0;
    // Wall clock: the sum of every millisecond field is the bench's
    // cost.
    for (const auto &[k, v] : obj.fields)
        if (v.kind == FlatValue::Kind::Number && endsWith(k, "_ms"))
            row.wall_ms += v.num;
    // Hit rate: COCO cut problems answered from the cut cache
    // (coco_warm_starts) vs built and solved (coco_cold_rebuilds).
    const FlatValue *h = obj.find("coco_warm_starts");
    const FlatValue *m = obj.find("coco_cold_rebuilds");
    if (h && m && h->num + m->num > 0)
        row.hit_rate = 100.0 * h->num / (h->num + m->num);
    row.raw = std::move(obj);
    return row;
}

void
writeMerged(std::ostream &os, const std::vector<BenchRow> &rows)
{
    os << "{\"schema\":1,\"type\":\"bench-report\",\"benches\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
        const BenchRow &r = rows[i];
        if (i)
            os << ",";
        os << "{\"file\":\"" << jsonEscape(r.file) << "\",\"bench\":\""
           << jsonEscape(r.bench) << "\",\"ok\":"
           << (r.ok < 0 ? "null" : (r.ok ? "true" : "false"))
           << ",\"wall_ms\":" << r.wall_ms << ",\"hit_rate\":";
        if (r.hit_rate < 0)
            os << "null";
        else
            os << r.hit_rate;
        for (const auto &[k, v] : r.raw.fields) {
            os << ",\"" << jsonEscape(k) << "\":";
            switch (v.kind) {
            case FlatValue::Kind::String:
                os << '"' << jsonEscape(v.str) << '"';
                break;
            case FlatValue::Kind::Number: os << v.num; break;
            case FlatValue::Kind::Bool:
                os << (v.b ? "true" : "false");
                break;
            case FlatValue::Kind::Null: os << "null"; break;
            }
        }
        os << "}";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_report: --out needs a "
                                     "value\n");
                return 2;
            }
            out_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr, "usage: %s [--out FILE] "
                                 "BENCH_*.json...\n",
                         argv[0]);
            return 0;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "bench_report: no input files\nusage: %s "
                     "[--out FILE] BENCH_*.json...\n",
                     argv[0]);
        return 2;
    }

    std::vector<BenchRow> rows;
    bool all_ok = true;
    for (const std::string &file : files) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "bench_report: cannot read %s\n",
                         file.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        FlatObject obj;
        std::string err;
        FlatParser parser(buf.str());
        if (!parser.parse(obj, err)) {
            std::fprintf(stderr, "bench_report: %s: %s\n",
                         file.c_str(), err.c_str());
            return 2;
        }
        BenchRow row = summarize(file, std::move(obj));
        if (row.ok == 0)
            all_ok = false;
        rows.push_back(std::move(row));
    }

    std::printf("%-24s %-8s %-5s %12s %9s\n", "file", "bench", "ok",
                "wall_ms", "hit_rate");
    for (const BenchRow &r : rows) {
        char hit[16] = "-";
        if (r.hit_rate >= 0)
            std::snprintf(hit, sizeof(hit), "%.1f%%", r.hit_rate);
        std::printf("%-24s %-8s %-5s %12.1f %9s\n", r.file.c_str(),
                    r.bench.c_str(),
                    r.ok < 0 ? "-" : (r.ok ? "yes" : "NO"), r.wall_ms,
                    hit);
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        writeMerged(out, rows);
    }
    return all_ok ? 0 : 1;
}
