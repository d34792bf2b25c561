#include "result.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace ugcbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

HostContext
currentHost()
{
    HostContext host;
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    host.buildType = UGCBENCH_BUILD_TYPE;
    double load[1] = {0.0};
    if (getloadavg(load, 1) == 1)
        host.loadAvg1 = load[0];
    return host;
}

ResultWriter::ResultWriter(std::string workload, double seconds, bool traced,
                           HostContext host)
    : _workload(std::move(workload)), _seconds(seconds), _traced(traced),
      _host(std::move(host))
{
#ifndef NDEBUG
    throw std::logic_error(
        "ugcbench: built without NDEBUG; timings from assertion-enabled "
        "builds are not recorded (configure with -DCMAKE_BUILD_TYPE="
        "RelWithDebInfo or Release)");
#endif
}

void
ResultWriter::metric(const std::string &name, const std::string &unit,
                     double value, const std::vector<double> &samples)
{
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = value;
    if (samples.empty()) {
        m.median = m.q1 = m.q3 = value;
        m.n = 1;
    } else {
        m.median = quantile(samples, 0.5);
        m.q1 = quantile(samples, 0.25);
        m.q3 = quantile(samples, 0.75);
        m.n = samples.size();
    }
    _metrics.push_back(std::move(m));
}

void
ResultWriter::outcome(uint64_t attempted, uint64_t failed)
{
    _attempted = attempted;
    _failed = failed;
}

void
ResultWriter::note(std::string text)
{
    _notes.push_back(std::move(text));
}

void
ResultWriter::invalidate(std::string reason)
{
    _valid = false;
    note("invalid: " + std::move(reason));
}

void
ResultWriter::print() const
{
    std::printf("ugcbench %s (%s): %llu attempted, %llu failed%s\n",
                _workload.c_str(), _traced ? "traced" : "untraced",
                static_cast<unsigned long long>(_attempted),
                static_cast<unsigned long long>(_failed),
                _valid ? "" : ", INVALID");
    for (const Metric &m : _metrics)
        std::printf("  %-34s = %14.6g %-6s (median %.6g, q1 %.6g, q3 %.6g, "
                    "n %zu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.median, m.q1,
                    m.q3, m.n);
    for (const std::string &text : _notes)
        std::printf("  note: %s\n", text.c_str());
    std::fflush(stdout);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string
ResultWriter::toJson() const
{
    std::ostringstream out;
    out << "{\"schema\": \"ugcbench.result.v1\",\n"
        << " \"workload\": " << jsonString(_workload)
        << ", \"seconds\": " << jsonNumber(_seconds)
        << ", \"traced\": " << (_traced ? "true" : "false") << ",\n"
        << " \"host\": {\"nproc\": " << _host.nproc
        << ", \"pool_workers\": " << _host.poolWorkers
        << ", \"build_type\": " << jsonString(_host.buildType)
        << ", \"git_sha\": " << jsonString(_host.gitSha)
        << ", \"seed\": " << _host.seed
        << ", \"load_avg_1m\": " << jsonNumber(_host.loadAvg1) << "},\n"
        << " \"correct\": " << (_failed == 0 ? "true" : "false")
        << ", \"valid\": " << (_valid ? "true" : "false")
        << ", \"attempted\": " << _attempted << ", \"failed\": " << _failed
        << ",\n \"notes\": [";
    for (size_t i = 0; i < _notes.size(); ++i)
        out << (i ? ", " : "") << jsonString(_notes[i]);
    out << "],\n \"metrics\": {";
    for (size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        out << (i ? ",\n  " : "\n  ") << jsonString(m.name)
            << ": {\"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit)
            << ", \"median\": " << jsonNumber(m.median)
            << ", \"q1\": " << jsonNumber(m.q1)
            << ", \"q3\": " << jsonNumber(m.q3) << ", \"n\": " << m.n << "}";
    }
    out << "}}\n";
    return out.str();
}

bool
ResultWriter::write(const std::string &path) const
{
    std::ofstream out(path);
    out << toJson();
    out.flush();
    return static_cast<bool>(out);
}

} // namespace ugcbench
