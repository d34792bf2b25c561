/**
 * @file
 * In-memory span recorder for traced ugcbench runs. Spans are recorded by
 * the benchmark around its calls into each layer (never inside src/), kept
 * in memory, and written as JSON lines when the run ends; breakdown.py
 * folds them into per-layer self time.
 *
 * Not thread-safe: only the benchmark's load thread records.
 */
#ifndef UGCBENCH_TRACE_H
#define UGCBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/prof.h"

namespace ugcbench {

class Trace
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Trace(bool on) : _on(on), _epoch(Clock::now()) {}

    bool on() const { return _on; }

    /** Record a finished span. @return its id, 0 when tracing is off.
     *  @p parent and @p query are 0 for "none". @p wall_ms is the engine's
     *  own QueryResult::wallMs for query spans (negative elsewhere). */
    uint64_t add(const std::string &name, uint64_t parent, uint64_t query,
                 Clock::time_point start, Clock::time_point end,
                 const std::string &tag = {}, double wall_ms = -1.0);

    /** Open a span that closes with close(); children may name it as
     *  their parent meanwhile. */
    uint64_t open(const std::string &name, uint64_t parent = 0,
                  uint64_t query = 0);
    void close(uint64_t id);

    /**
     * Fold the scope tree of @p profile (compile, pass:*, run, round,
     * apply:* — the scopes the program already emits) under span
     * @p parent. A profile keeps durations but no start times, so sibling
     * scopes are laid end to end from @p start.
     */
    void foldProfile(const ugc::prof::Profile &profile, uint64_t parent,
                     uint64_t query, Clock::time_point start);

    /** A run-level number written into the trace header. */
    void meta(const std::string &key, double value) { _meta[key] = value; }

    /** @return false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string tag;
        uint64_t parent = 0;
        uint64_t query = 0;
        int64_t startNs = 0; ///< since the trace epoch
        int64_t durNs = -1;  ///< -1 while open
        double wallMs = -1.0;
    };

    int64_t since(Clock::time_point t) const;
    int64_t foldScope(const ugc::prof::Profile::Scope &scope, uint64_t parent,
                      uint64_t query, int64_t start_ns);

    bool _on;
    Clock::time_point _epoch;
    std::vector<Span> _spans; ///< id = index + 1
    std::map<std::string, double> _meta;
};

} // namespace ugcbench

#endif // UGCBENCH_TRACE_H
