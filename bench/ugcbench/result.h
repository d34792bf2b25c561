/**
 * @file
 * ugcbench result schema (ugcbench.result.v1): one JSON document per run
 * with the host context it ran on and, for every metric, its value, unit,
 * and the median, quartiles and count of the samples behind it.
 */
#ifndef UGCBENCH_RESULT_H
#define UGCBENCH_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ugcbench {

/** Linear-interpolated quantile (q in [0, 1]) of @p values; 0 if empty. */
double quantile(std::vector<double> values, double q);

/** Where a run happened: enough to tell two result files apart. */
struct HostContext
{
    unsigned nproc = 0;       ///< online CPUs
    unsigned poolWorkers = 0; ///< Engine pool size used by the run
    std::string buildType;    ///< CMake build type of the binary
    std::string gitSha;       ///< passed in by the run script
    uint64_t seed = 0;
    double loadAvg1 = 0.0;    ///< 1-minute load average at the start
};

/** Fill nproc, build type and load average; the caller sets the rest. */
HostContext currentHost();

class ResultWriter
{
  public:
    /** @throws std::logic_error in a build without NDEBUG: numbers from
     *  assertion-enabled builds are not comparable and are never
     *  recorded. */
    ResultWriter(std::string workload, double seconds, bool traced,
                 HostContext host);

    /** A metric computed from @p samples (median, quartiles and count are
     *  recorded beside @p value; a single sample when empty). */
    void metric(const std::string &name, const std::string &unit,
                double value, const std::vector<double> &samples = {});

    /** Outcome counts: operations attempted, and those that failed or
     *  failed a correctness check. */
    void outcome(uint64_t attempted, uint64_t failed);

    /** Human-readable note (a failed check, an invalid-run flag). */
    void note(std::string text);

    /** Mark the run's timing invalid (the load generator fell behind). */
    void invalidate(std::string reason);

    /** Print every metric as "name = value unit (...)" to stdout. */
    void print() const;

    std::string toJson() const;

    /** @return false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    struct Metric
    {
        std::string name;
        std::string unit;
        double value = 0.0;
        double median = 0.0;
        double q1 = 0.0;
        double q3 = 0.0;
        size_t n = 0;
    };

    std::string _workload;
    double _seconds;
    bool _traced;
    HostContext _host;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    bool _valid = true;
    std::vector<std::string> _notes;
    std::vector<Metric> _metrics;
};

/** JSON string literal (quotes included) with the required escapes. */
std::string jsonString(const std::string &text);

/** Shortest round-trip text of a finite double; "null" otherwise. */
std::string jsonNumber(double value);

} // namespace ugcbench

#endif // UGCBENCH_RESULT_H
