#ifndef GMT_SUPPORT_CLI_HPP
#define GMT_SUPPORT_CLI_HPP

/**
 * @file
 * Flag-value parsing shared by the bench drivers and the tools: one
 * checked integer parser and one checked floating-point parser, so a
 * malformed value is a usage error instead of a silently substituted
 * number, and one CSV splitter.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gmt
{

/** Upper bound of every worker-count flag (--jobs, --coco-jobs). */
constexpr int64_t kMaxJobs = 1024;

/** Upper bound of every scheduler thread-count flag (--threads). */
constexpr int64_t kMaxThreads = 64;

/**
 * @p text as a base-10 integer in [@p lo, @p hi]: an optional '-'
 * followed by digits, and nothing else. Empty text, any other
 * character (a '+', spaces, trailing garbage such as "5O") and
 * values outside the range, int64_t overflow included, give nullopt.
 */
std::optional<int64_t> parseInt(const std::string &text, int64_t lo,
                                int64_t hi);

/**
 * The value of integer flag @p flag, given as @p text. Anything
 * parseInt rejects prints "<argv0>: <flag> wants an integer in
 * [lo, hi], got '<text>'", then calls @p usage(argv0, 2), the tool's
 * usage printer, and exits 2.
 */
int64_t intFlag(const char *argv0, const std::string &flag,
                const std::string &text, int64_t lo, int64_t hi,
                void (*usage)(const char *argv0, int exit_code));

/**
 * @p text as a finite decimal number in [@p lo, @p hi]: what
 * std::from_chars accepts (an optional '-', digits with an optional
 * fraction and exponent) and nothing else. Empty text, any other
 * character (a '+', spaces, trailing garbage such as "99x"), "inf"
 * and "nan", and values outside the range give nullopt.
 */
std::optional<double> parseDouble(const std::string &text, double lo,
                                  double hi);

/** "a,b,,c" -> {"a", "b", "c"}: split at commas, empty fields
 *  dropped. */
std::vector<std::string> splitCsv(const std::string &csv);

} // namespace gmt

#endif // GMT_SUPPORT_CLI_HPP
