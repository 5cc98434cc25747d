#ifndef GMT_SUPPORT_JSON_HPP
#define GMT_SUPPORT_JSON_HPP

/**
 * @file
 * The one JSON string escaper behind every JSON writer in the repo
 * (stats JSONL, Chrome traces, provenance, gmt-explain, the autotune
 * move log, bench_report).
 */

#include <iosfwd>
#include <string>

namespace gmt
{

/**
 * Escape @p s for use inside a JSON string literal (RFC 8259): quote
 * and backslash, \n \r \t by name, every other control character as
 * \u00XX. Bytes from 0x80 up pass through unchanged, so UTF-8 stays
 * UTF-8.
 */
std::string jsonEscape(const std::string &s);

/** Write @p s to @p os as a quoted, escaped JSON string. */
void writeJsonString(std::ostream &os, const std::string &s);

} // namespace gmt

#endif // GMT_SUPPORT_JSON_HPP
