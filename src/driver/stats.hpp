#ifndef GMT_DRIVER_STATS_HPP
#define GMT_DRIVER_STATS_HPP

/**
 * @file
 * Structured stats sink for the pass pipeline: one JSON object per
 * line (JSONL), one record per pass execution and one per finished
 * cell, safe to write from concurrent experiment-runner workers.
 * See DESIGN.md ("Stats JSON schema") for the record fields.
 */

#include <cstdint>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>

namespace gmt
{

/**
 * Builder for one flat JSON object. Keys are emitted in insertion
 * order; values are strings, numbers, or booleans. Strings are
 * escaped per RFC 8259 (support/json.hpp).
 */
class JsonObject
{
  public:
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &num(const std::string &key, double value);
    JsonObject &num(const std::string &key, int64_t value);
    JsonObject &num(const std::string &key, uint64_t value);
    JsonObject &boolean(const std::string &key, bool value);

    /** Render "{...}" (no trailing newline). */
    std::string render() const;

  private:
    void key(const std::string &k);
    std::string body_;
};

/**
 * Thread-safe JSONL sink. Records are appended atomically (one lock
 * per line), so concurrent cells never interleave within a line.
 */
class StatsSink
{
  public:
    /** Write to @p path (truncates). Throws FatalError if unopenable. */
    explicit StatsSink(const std::string &path);

    /** Write to an externally owned stream (tests). */
    explicit StatsSink(std::ostream &os);

    void write(const JsonObject &record);

    uint64_t recordsWritten() const;

  private:
    std::ofstream owned_;
    std::ostream *os_;
    mutable std::mutex mu_;
    uint64_t records_ = 0;
};

} // namespace gmt

#endif // GMT_DRIVER_STATS_HPP
