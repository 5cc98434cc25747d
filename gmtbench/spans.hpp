#ifndef GMTBENCH_SPANS_HPP
#define GMTBENCH_SPANS_HPP

/**
 * @file
 * In-memory span recorder for the traced replay. The benchmark opens
 * one span around each of its own calls into a gmtsched module; spans
 * nest (batch > cell > layer call), stay in memory while the replay
 * runs, and are written out once at the end. A span's self time is its
 * duration minus the time its direct children cover, so per-layer self
 * times plus the driver's own time add up to the batch wall time.
 */

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gmtbench
{

struct Span
{
    std::string name; ///< "<layer>[.<part>]", e.g. "runtime.mt"
    std::string cell; ///< cell id, empty for the batch span
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1; ///< index into the recorder's spans, -1 = root
};

/** The layer a span is charged to: its name up to the first '.'. */
std::string layerOf(const std::string &span_name);

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int open(std::string name, const std::string &cell);

    /** Close span @p id, which must be the innermost open span. */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time (ms) of every span name: duration minus the duration
     * of its direct children. Sums to the roots' total duration.
     */
    std::map<std::string, double> selfMs() const;

    /** Sum of root-span durations (ms). */
    double rootMs() const;

    /** One JSON object per span, one per line. */
    void writeJsonl(std::ostream &os) const;

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name,
               const std::string &cell)
        : rec_(rec), id_(rec.open(std::move(name), cell))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace gmtbench

#endif // GMTBENCH_SPANS_HPP
