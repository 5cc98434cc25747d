#include "spans.hpp"

#include <stdexcept>

namespace gmtbench
{

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(4096); }

int
SpanRecorder::open(std::string name, const std::string &cell)
{
    Span s;
    s.name = std::move(name);
    s.cell = cell;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
            .count();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    spans_[id].end_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
            .count();
}

std::map<std::string, double>
SpanRecorder::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ms - spans_[i].start_ms;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.end_ms - s.start_ms;
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

double
SpanRecorder::rootMs() const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            total += s.end_ms - s.start_ms;
    return total;
}

void
SpanRecorder::writeJsonl(std::ostream &os) const
{
    for (const Span &s : spans_)
        os << "{\"name\":\"" << s.name << "\",\"cell\":\"" << s.cell
           << "\",\"start_ms\":" << s.start_ms
           << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
           << "}\n";
}

} // namespace gmtbench
