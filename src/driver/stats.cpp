#include "driver/stats.hpp"

#include <cmath>
#include <cstdio>

#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += jsonEscape(k);
    body_ += "\":";
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &value)
{
    key(k);
    body_ += '"';
    body_ += jsonEscape(value);
    body_ += '"';
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body_ += buf;
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::boolean(const std::string &k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

std::string
JsonObject::render() const
{
    return "{" + body_ + "}";
}

StatsSink::StatsSink(const std::string &path)
    : owned_(path, std::ios::trunc), os_(&owned_)
{
    if (!owned_)
        fatal("cannot open stats file ", path);
}

StatsSink::StatsSink(std::ostream &os) : os_(&os) {}

void
StatsSink::write(const JsonObject &record)
{
    std::string line = record.render();
    line += '\n';
    std::lock_guard<std::mutex> lock(mu_);
    *os_ << line;
    os_->flush();
    ++records_;
}

uint64_t
StatsSink::recordsWritten() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

} // namespace gmt
