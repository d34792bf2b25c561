#include "trace.h"

#include <fstream>

#include "result.h"

namespace ugcbench {

int64_t
Trace::since(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - _epoch)
        .count();
}

uint64_t
Trace::add(const std::string &name, uint64_t parent, uint64_t query,
           Clock::time_point start, Clock::time_point end,
           const std::string &tag, double wall_ms)
{
    if (!_on)
        return 0;
    Span span;
    span.name = name;
    span.tag = tag;
    span.parent = parent;
    span.query = query;
    span.startNs = since(start);
    span.durNs = since(end) - span.startNs;
    span.wallMs = wall_ms;
    _spans.push_back(std::move(span));
    return _spans.size();
}

uint64_t
Trace::open(const std::string &name, uint64_t parent, uint64_t query)
{
    if (!_on)
        return 0;
    Span span;
    span.name = name;
    span.parent = parent;
    span.query = query;
    span.startNs = since(Clock::now());
    _spans.push_back(std::move(span));
    return _spans.size();
}

void
Trace::close(uint64_t id)
{
    if (!_on || id == 0 || id > _spans.size())
        return;
    Span &span = _spans[id - 1];
    span.durNs = since(Clock::now()) - span.startNs;
}

int64_t
Trace::foldScope(const ugc::prof::Profile::Scope &scope, uint64_t parent,
                 uint64_t query, int64_t start_ns)
{
    Span span;
    span.name = scope.name;
    span.parent = parent;
    span.query = query;
    span.startNs = start_ns;
    span.durNs = scope.wallNs;
    _spans.push_back(std::move(span));
    const uint64_t id = _spans.size();
    int64_t cursor = start_ns;
    for (const auto &child : scope.children)
        cursor += foldScope(*child, id, query, cursor);
    return scope.wallNs;
}

void
Trace::foldProfile(const ugc::prof::Profile &profile, uint64_t parent,
                   uint64_t query, Clock::time_point start)
{
    if (!_on)
        return;
    int64_t cursor = since(start);
    for (const auto &child : profile.root().children)
        cursor += foldScope(*child, parent, query, cursor);
}

bool
Trace::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"type\": \"meta\", \"schema\": \"ugcbench.trace.v1\"";
    for (const auto &[key, value] : _meta)
        out << ", " << jsonString(key) << ": " << jsonNumber(value);
    out << "}\n";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        out << "{\"type\": \"span\", \"id\": " << i + 1
            << ", \"parent\": " << span.parent
            << ", \"query\": " << span.query
            << ", \"name\": " << jsonString(span.name)
            << ", \"start_us\": " << jsonNumber(span.startNs / 1e3)
            << ", \"dur_us\": " << jsonNumber(span.durNs / 1e3);
        if (!span.tag.empty())
            out << ", \"tag\": " << jsonString(span.tag);
        if (span.wallMs >= 0.0)
            out << ", \"wall_ms\": " << jsonNumber(span.wallMs);
        out << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace ugcbench
