#include "support/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gmt
{

std::optional<int64_t>
parseInt(const std::string &text, int64_t lo, int64_t hi)
{
    int64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

int64_t
intFlag(const char *argv0, const std::string &flag,
        const std::string &text, int64_t lo, int64_t hi,
        void (*usage)(const char *argv0, int exit_code))
{
    if (std::optional<int64_t> v = parseInt(text, lo, hi))
        return *v;
    std::fprintf(stderr,
                 "%s: %s wants an integer in [%lld, %lld], got '%s'\n",
                 argv0, flag.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi), text.c_str());
    usage(argv0, 2);
    std::exit(2);
}

std::optional<double>
parseDouble(const std::string &text, double lo, double hi)
{
    double v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
        v > hi)
        return std::nullopt;
    return v;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            parts.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

} // namespace gmt
