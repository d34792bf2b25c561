/**
 * ugcbench: one benchmark for UGC serving and the Fig 8 grid (README.md).
 *
 *   ugcbench --workload <name> --seed <n> --seconds <s> --json <out>
 *            [--trace <file>] [--golden <fig8_cycles.json>]
 *            [--workdir <dir>] [--git-sha <sha>]
 *   ugcbench --write-golden <file>
 *
 * It links libugc and drives only public entry points — Engine/Session,
 * serve::Server::handleLine, Engine::makeBackend → GraphVM::compile /
 * execute, datasets::loadCached and frontend::compileSource — timing each
 * layer from outside, around the calls into it. One load thread submits
 * every query; queries run on the Engine's pool of min(nproc, 4)
 * workers. Every set-up builds its graphs cold into a private
 * UGC_GRAPH_CACHE_DIR under --workdir, deleted afterwards.
 *
 * Exit status: 0 when every correctness check passed, 1 when one failed,
 * 2 on a usage or set-up error.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "frontend/sema.h"
#include "reference/reference.h"
#include "result.h"
#include "serve/server.h"
#include "support/stats.h"
#include "trace.h"
#include "vm/graphvm.h"
#include "workloads.h"

namespace ugcbench {
namespace {

using Clock = std::chrono::steady_clock;
using ugc::Engine;
using ugc::QueryResult;

/** setup_s is the median of this many cold starts per untraced run. */
constexpr int kSetups = 5;
/** Serving end-to-end metrics are medians over this many equal slices of
 *  the timed phase. */
constexpr size_t kWindows = 5;
/** Closed-loop completions are detected by polling isDone this often. */
constexpr auto kPoll = std::chrono::microseconds(50);
/** Every this-many-th serving query is rerun alone and validated. */
constexpr size_t kSampleEvery = 50;
/** A run whose generator lag p99 exceeds this is flagged invalid. */
constexpr double kMaxLagMs = 1.0;
/** Repetitions of each layer probe (medians are reported). */
constexpr int kProbeReps = 3;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string json;
    std::string trace;
    std::string golden;
    std::string workdir = ".";
    std::string gitSha = "unknown";
    std::string writeGolden;
};

Args
parseArgs(int argc, char *argv[])
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--json")
            args.json = value;
        else if (flag == "--trace")
            args.trace = value;
        else if (flag == "--golden")
            args.golden = value;
        else if (flag == "--workdir")
            args.workdir = value;
        else if (flag == "--git-sha")
            args.gitSha = value;
        else if (flag == "--write-golden")
            args.writeGolden = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.writeGolden.empty() && (args.workload.empty() || args.json.empty()))
        throw std::invalid_argument("--workload and --json are required");
    if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

unsigned
poolWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

ugc::EngineOptions
engineOptions(const Workload &w, unsigned workers)
{
    ugc::EngineOptions options;
    options.poolThreads = workers;
    options.graphCachePolicy = ugc::ugb::CachePolicy::Auto;
    // Session queries always run serially on a pool worker; this only
    // lets a synchronous Engine::run from the load thread (the
    // parallel-speedup probe) use the whole pool.
    options.backend.numThreads = workers;
    options.backend.scaleMemoryToDatasets = w.scaleMemoryToDatasets;
    return options;
}

ugc::Session::Options
sessionOptions()
{
    ugc::Session::Options options;
    options.maxInFlight = 0; // no admission cap: the workloads bound load
    return options;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
propertiesHash(const ugc::RunResult &run)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto &[name, values] : run.properties) {
        hash = ugc::ugb::fnv1a(name.data(), name.size(), hash);
        hash = ugc::ugb::fnv1a(values.data(), values.size() * sizeof(double),
                               hash);
    }
    return hash;
}

std::string
label(const Op &op)
{
    if (!op.cell.empty())
        return op.cell;
    std::string text = op.query.backend + "/" + op.query.graph + "/" +
                       op.query.algorithm + "/" + op.query.schedule;
    if (op.query.sources.size() > 1)
        text += "/fused" + std::to_string(op.query.sources.size());
    return text;
}

// --- set-up ---------------------------------------------------------------

struct Setup
{
    std::unique_ptr<Engine> engine;
    double seconds = 0.0;
    double graphBuildMs = 0.0;
    uint64_t warmupCycles = 0;
};

/**
 * One cold start, timed end to end: Engine construction, builtins, every
 * graph variant the workload touches built into an empty cache, and
 * every program-cache key compiled and executed once.
 */
Setup
setUp(Workload &w, uint64_t seed, unsigned workers,
      const std::string &cache_dir, Trace &trace)
{
    std::filesystem::create_directories(cache_dir);
    setenv("UGC_GRAPH_CACHE_DIR", cache_dir.c_str(), 1);

    Setup setup;
    const Clock::time_point begin = Clock::now();
    const uint64_t root = trace.open("setup");

    uint64_t span = trace.open("engine", root);
    setup.engine = std::make_unique<Engine>(engineOptions(w, workers));
    trace.close(span);
    Engine &engine = *setup.engine;

    span = trace.open("registerBuiltins", root);
    engine.registerBuiltins();
    registerExtraPrograms(w, engine);
    trace.close(span);

    auto materialize = [&](const std::string &code, bool weighted) {
        const Clock::time_point start = Clock::now();
        if (!engine.graph(code, weighted))
            throw std::runtime_error("graph " + code + " did not load");
        const Clock::time_point end = Clock::now();
        setup.graphBuildMs += msBetween(start, end);
        trace.add("loadCached", root, 0, start, end,
                  code + (weighted ? "/w" : ""));
    };
    for (const GraphUse &graph : w.graphs) {
        engine.loadDataset(graph.code, graph.code, graph.scale);
        materialize(graph.code, false);
    }
    generate(w, engine, seed);
    std::set<std::string> weighted;
    for (const auto *stream : {&w.closed, &w.open, &w.warmup})
        for (const Op &op : *stream)
            if (needsWeights(op.algorithm))
                weighted.insert(op.query.graph);
    for (const std::string &code : weighted)
        materialize(code, true);

    span = trace.open("warmup", root);
    std::vector<ugc::Query> queries;
    for (const Op &op : w.warmup)
        queries.push_back(op.query);
    ugc::Session session(engine, sessionOptions());
    const std::vector<QueryResult> results = session.runAll(queries, workers);
    trace.close(span);
    for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok())
            throw std::runtime_error("warm-up query " + label(w.warmup[i]) +
                                     " failed: " + results[i].diagnostic);
        setup.warmupCycles += results[i].run.cycles;
    }
    trace.close(root);
    setup.seconds = msBetween(begin, Clock::now()) / 1e3;
    return setup;
}

// --- timed phase ----------------------------------------------------------

/** One completed operation. */
struct Record
{
    bool open = false; ///< from the open-loop stream
    size_t index = 0;  ///< submission order within its stream
    Clock::time_point due, submit, done;
    bool ok = false;
    double wallMs = 0.0; ///< QueryResult::wallMs (inside Engine::run)
    uint64_t cycles = 0;
    uint64_t edges = 0;
    // From the query's profile (traced phases only).
    double runMs = -1.0;
    double compileMs = 0.0;
    double kernelTraversals = 0.0;
    double traversals = 0.0;

    /** Latency as the client sees it: from the due time for open-loop
     *  queries (counting generator stalls), from submit otherwise. */
    double latencyMs() const { return msBetween(open ? due : submit, done); }
    double queueMs() const { return msBetween(submit, done) - wallMs; }
    double lagMs() const { return msBetween(due, submit); }
};

/** What the checks need of a sampled operation. */
struct Sample
{
    uint64_t cycles = 0;
    uint64_t hash = 0;  ///< propertiesHash of the result
    ugc::RunResult run; ///< fig8-grid only: checked against the reference
};

struct Phase
{
    std::vector<Record> records;
    /** Sampled operations, keyed by (open, index). */
    std::map<std::pair<bool, size_t>, Sample> samples;
    std::vector<std::string> failures;
    Clock::time_point start;
    double seconds = 0.0; ///< the requested window
    double wallS = 0.0;   ///< including the drain
    double cpuS = 0.0;
    ugc::EngineStats before, after;
};

const Op &
opOf(const Workload &w, bool open, size_t index)
{
    const std::vector<Op> &stream = open ? w.open : w.closed;
    return stream[index % stream.size()];
}

/**
 * Drive the workload for @p seconds from this thread: open-loop queries
 * are submitted at their due times, closed-loop slots are refilled as
 * completions are detected (isDone polled every kPoll, then wait()).
 * A fig8 grid runs whole passes and starts another only when the last
 * one's duration still fits in the window (always at least one).
 */
Phase
runPhase(const Workload &w, Engine &engine, double seconds, bool profiling,
         Trace &trace)
{
    Phase phase;
    ugc::Session session(engine, sessionOptions());
    struct Pending
    {
        uint64_t ticket;
        bool open;
        size_t index;
        Clock::time_point due, submit;
    };
    std::vector<Pending> pending;
    std::set<std::pair<bool, std::string>> first_of_algorithm;

    phase.before = engine.stats();
    const double cpu_begin = cpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    phase.start = start;
    phase.seconds = seconds;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(w.openRate > 0 ? 1.0 / w.openRate
                                                     : 0.0));
    Clock::time_point next_due = start;
    Clock::time_point pass_start = start;
    std::deque<Clock::time_point> freed(w.inFlight, start);
    size_t closed_next = 0;
    size_t open_next = 0;
    size_t closed_in_flight = 0;
    bool closed_active = true;

    auto submit = [&](bool open, size_t index, Clock::time_point due) {
        ugc::Query query = opOf(w, open, index).query;
        query.profiling = profiling;
        const Clock::time_point now = Clock::now();
        pending.push_back({session.submit(query), open, index, due, now});
    };
    auto accept_closed = [&](Clock::time_point now) {
        if (!w.passes)
            return now < end;
        if (closed_next == 0 || closed_next % w.closed.size() != 0)
            return true;
        if (msBetween(start, now) + msBetween(pass_start, now) >
            seconds * 1e3)
            return false;
        pass_start = now;
        return true;
    };
    auto complete = [&](const Pending &p, Clock::time_point done,
                        QueryResult result) {
        const Op &op = opOf(w, p.open, p.index);
        Record rec;
        rec.open = p.open;
        rec.index = p.index;
        rec.due = p.due;
        rec.submit = p.submit;
        rec.done = done;
        rec.ok = result.ok();
        rec.wallMs = result.wallMs;
        rec.cycles = result.run.cycles;
        for (const ugc::IterationTrace &step : result.run.trace)
            rec.edges += static_cast<uint64_t>(step.edgesTraversed);
        if (!rec.ok && phase.failures.size() < 8)
            phase.failures.push_back(
                label(op) + ": " + ugc::queryStatusName(result.status) +
                " " + result.diagnostic);
        if (const auto &profile = result.run.profile) {
            if (const auto *run = profile->find("run"))
                rec.runMs = static_cast<double>(run->wallNs) / 1e6;
            if (const auto *compile = profile->find("compile"))
                rec.compileMs = static_cast<double>(compile->wallNs) / 1e6;
            rec.kernelTraversals =
                profile->totalCounter("udf.kernel_traversals");
            rec.traversals = static_cast<double>(profile->events().size());
            const uint64_t id =
                trace.add("query", 0, result.id, p.submit, done, label(op),
                          result.wallMs);
            trace.foldProfile(
                *profile, id, result.id,
                done - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               result.wallMs)));
        }
        const bool first =
            first_of_algorithm.emplace(p.open, op.algorithm).second;
        const bool keep = w.passes ? p.index < w.closed.size()
                                   : first || p.index % kSampleEvery == 0 ||
                                         op.query.sources.size() > 1;
        if (keep && rec.ok) {
            Sample &sample = phase.samples[{p.open, p.index}];
            sample.cycles = result.run.cycles;
            sample.hash = propertiesHash(result.run);
            if (w.passes) {
                result.run.profile.reset();
                sample.run = std::move(result.run);
            }
        }
        phase.records.push_back(rec);
    };

    for (;;) {
        for (size_t i = 0; i < pending.size();) {
            if (!session.isDone(pending[i].ticket)) {
                ++i;
                continue;
            }
            const Clock::time_point done = Clock::now();
            const Pending p = pending[i];
            pending[i] = pending.back();
            pending.pop_back();
            complete(p, done, session.wait(p.ticket));
            if (!p.open) {
                --closed_in_flight;
                freed.push_back(done);
            }
        }
        const Clock::time_point now = Clock::now();
        const bool open_active = w.openRate > 0 && now < end;
        if (open_active)
            for (; next_due <= now; next_due += period)
                submit(true, open_next++, next_due);
        while (closed_active && closed_in_flight < w.inFlight) {
            if (!accept_closed(now)) {
                closed_active = false;
                break;
            }
            submit(false, closed_next++, freed.front());
            freed.pop_front();
            ++closed_in_flight;
        }
        if (!closed_active && !open_active && pending.empty())
            break;
        std::this_thread::sleep_for(kPoll);
    }
    phase.wallS = msBetween(start, Clock::now()) / 1e3;
    phase.cpuS = cpuSeconds() - cpu_begin;
    phase.after = engine.stats();
    return phase;
}

// --- correctness checks ---------------------------------------------------

/** Golden fig8 cycles: "<backend>/<graph>/<alg>/<variant>" → cycles. */
using Golden = std::map<std::string, uint64_t>;

/** Value of "key": in a one-object JSON line (string or number text). */
std::string
jsonField(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    size_t pos = line.find(tag);
    if (pos == std::string::npos)
        return "";
    pos = line.find_first_not_of(' ', pos + tag.size());
    if (pos == std::string::npos)
        return "";
    if (line[pos] == '"') {
        const size_t close = line.find('"', pos + 1);
        return line.substr(pos + 1, close - pos - 1);
    }
    const size_t close = line.find_first_of(",}", pos);
    return line.substr(pos, close - pos);
}

Golden
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file " + path);
    Golden golden;
    std::string line;
    while (std::getline(in, line)) {
        if (jsonField(line, "backend").empty())
            continue;
        const std::string cell = jsonField(line, "backend") + "/" +
                                 jsonField(line, "graph") + "/" +
                                 jsonField(line, "algorithm") + "/";
        golden[cell + "baseline"] = std::stoull(jsonField(line, "baseline"));
        golden[cell + "tuned"] = std::stoull(jsonField(line, "tuned"));
    }
    if (golden.size() != 2 * fig8Cells().size())
        throw std::runtime_error("golden file " + path + " has " +
                                 std::to_string(golden.size() / 2) +
                                 " cells, expected " +
                                 std::to_string(fig8Cells().size()));
    return golden;
}

/** Serial-reference answers, computed once per (graph, algorithm, start,
 *  arg3) within a run. */
class ReferenceCheck
{
  public:
    explicit ReferenceCheck(Engine &engine) : _engine(engine) {}

    /** Does @p run hold the reference answer of @p op? (src/reference;
     *  the same validators and tolerances as the cross-VM tests.) */
    bool
    matches(const Op &op, const ugc::RunResult &run, std::string &why)
    {
        const ugc::Graph &graph =
            *_engine.graph(op.query.graph, needsWeights(op.algorithm));
        const ugc::VertexId start = op.query.start;
        const std::string key = op.query.graph + "/" + op.algorithm + "/" +
                                std::to_string(start) + "/" +
                                std::to_string(op.query.arg3);
        namespace ref = ugc::reference;
        bool ok = false;
        try {
            if (op.algorithm == "bfs") {
                ok = ref::validBfsParents(graph, start, run.property("parent"));
            } else if (op.algorithm == "sssp") {
                auto it = _ints.find(key);
                if (it == _ints.end())
                    it = _ints.emplace(key, ref::ssspDistances(graph, start))
                             .first;
                ok = ref::equalInt(run.property("dist"), it->second);
            } else if (op.algorithm == "cc") {
                auto it = _ints.find(key);
                if (it == _ints.end())
                    it = _ints.emplace(key, ref::connectedComponents(graph))
                             .first;
                ok = ref::equalInt(run.property("IDs"), it->second);
            } else if (op.algorithm == "pr") {
                auto it = _doubles.find(key);
                if (it == _doubles.end())
                    it = _doubles
                             .emplace(key, ref::pageRank(
                                               graph, static_cast<int>(
                                                          op.query.arg3)))
                             .first;
                ok = ref::closeTo(run.property("old_rank"), it->second);
            } else if (op.algorithm == "bc") {
                auto it = _doubles.find(key);
                if (it == _doubles.end())
                    it = _doubles.emplace(key, ref::bcDependencies(graph, start))
                             .first;
                ok = ref::closeTo(run.property("dependences"), it->second);
            }
        } catch (const std::out_of_range &) {
            why = "result lacks the property the reference check reads";
            return false;
        }
        if (!ok)
            why = "differs from the serial reference";
        return ok;
    }

  private:
    Engine &_engine;
    std::map<std::string, std::vector<int64_t>> _ints;
    std::map<std::string, std::vector<double>> _doubles;
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    fail(std::string why)
    {
        ++failed;
        if (notes.size() < 16)
            notes.push_back(std::move(why));
    }
};

/**
 * Every operation must succeed, hit the program cache, and (fig8-grid)
 * reproduce the golden cycles; sampled operations must match the serial
 * reference — serving samples after a solo rerun with Query::validate set
 * whose cycles and result hash must equal the concurrent run's (the
 * documented contract that concurrent and solo runs agree).
 */
void
checkPhase(const Workload &w, Engine &engine, const Phase &phase,
           const Golden &golden, Outcome &outcome)
{
    outcome.attempted += phase.records.size();
    for (const std::string &failure : phase.failures)
        outcome.notes.push_back(failure);
    for (const Record &rec : phase.records) {
        if (!rec.ok) {
            ++outcome.failed;
            continue;
        }
        if (!w.passes)
            continue;
        const Op &op = opOf(w, rec.open, rec.index);
        const auto it = golden.find(op.cell);
        if (it == golden.end() || it->second != rec.cycles)
            outcome.fail(op.cell + ": cycles " + std::to_string(rec.cycles) +
                         " differ from the golden " +
                         (it == golden.end() ? std::string("(missing)")
                                             : std::to_string(it->second)));
    }
    const uint64_t misses =
        phase.after.cacheMisses - phase.before.cacheMisses;
    for (uint64_t i = 0; i < misses; ++i)
        outcome.fail("program-cache miss during the timed phase");

    ReferenceCheck reference(engine);
    ugc::Session session(engine, sessionOptions());
    for (const auto &[key, concurrent] : phase.samples) {
        const Op &op = opOf(w, key.first, key.second);
        std::string why;
        bool ok = true;
        if (w.passes) {
            ok = reference.matches(op, concurrent.run, why);
        } else {
            ugc::Query query = op.query;
            if (op.algorithm != "bc") // the engine validates the other four
                query.validate = op.algorithm;
            const QueryResult solo = session.wait(session.submit(query));
            if (!solo.ok()) {
                ok = false;
                why = std::string("solo rerun ") +
                      ugc::queryStatusName(solo.status) + ": " +
                      solo.diagnostic;
            } else if (solo.run.cycles != concurrent.cycles) {
                ok = false;
                why = "solo cycles " + std::to_string(solo.run.cycles) +
                      " != concurrent " + std::to_string(concurrent.cycles);
            } else if (propertiesHash(solo.run) != concurrent.hash) {
                ok = false;
                why = "solo and concurrent result hashes differ";
            } else if (op.algorithm == "bc") {
                ok = reference.matches(op, solo.run, why);
            }
        }
        if (!ok)
            outcome.fail(label(op) + ": " + why);
    }
}

// --- metrics --------------------------------------------------------------

/** Latencies of the latency stream: the open (light) stream when there is
 *  one, the closed stream otherwise. */
std::vector<double>
latencies(const Workload &w, const Phase &phase)
{
    std::vector<double> out;
    for (const Record &rec : phase.records)
        if (rec.open == (w.openRate > 0))
            out.push_back(rec.latencyMs());
    return out;
}

/** Generator lag (submit − due) of the latency stream. */
std::vector<double>
lags(const Workload &w, const Phase &phase)
{
    std::vector<double> out;
    for (const Record &rec : phase.records)
        if (rec.open == (w.openRate > 0))
            out.push_back(rec.lagMs());
    return out;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** A slice of a serving workload's timed phase. */
struct Window
{
    Clock::time_point begin, end;
    size_t closedDone = 0;         ///< closed-loop completions
    std::vector<double> latencyMs; ///< of the latency stream
};

/**
 * Cut the timed phase into kWindows equal slices by completion time (the
 * last one runs until the drain ends). End-to-end numbers are medians over
 * windows, so one noisy stretch of a shared machine moves them less than
 * it moves a whole-run figure.
 */
std::vector<Window>
windows(const Workload &w, const Phase &phase)
{
    const bool open_latency = w.openRate > 0; // the light stream is open
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(phase.seconds / kWindows));
    std::vector<Window> out(kWindows);
    for (size_t k = 0; k < kWindows; ++k) {
        out[k].begin = phase.start + slice * static_cast<int>(k);
        out[k].end = out[k].begin + slice;
    }
    for (const Record &rec : phase.records) {
        Window &window = out[std::min(
            kWindows - 1,
            static_cast<size_t>((rec.done - phase.start) / slice))];
        window.end = std::max(window.end, rec.done); // the drain extends
        window.closedDone += rec.open ? 0 : 1;
        if (rec.open == open_latency)
            window.latencyMs.push_back(rec.latencyMs());
    }
    return out;
}

/**
 * fig8-grid: each grid query's latency in its fastest pass. A grid query
 * does the same deterministic work in every pass, so its fastest pass is
 * the one the shared machine disturbed least.
 */
std::vector<double>
fastestPasses(const Workload &w, const Phase &phase)
{
    std::map<size_t, double> fastest; // index in the pass → ms
    for (const Record &rec : phase.records) {
        const auto [it, fresh] =
            fastest.emplace(rec.index % w.closed.size(), rec.latencyMs());
        if (!fresh)
            it->second = std::min(it->second, rec.latencyMs());
    }
    std::vector<double> out;
    for (const auto &[index, ms] : fastest)
        out.push_back(ms);
    return out;
}

void
endToEndMetrics(ResultWriter &writer, const Workload &w, const Phase &phase,
                const std::vector<double> &setup_seconds)
{
    writer.metric("setup_s", "s", median(setup_seconds), setup_seconds);
    std::vector<double> qps, p50, p99;
    if (w.passes) {
        const std::vector<double> fastest = fastestPasses(w, phase);
        double total_ms = 0.0;
        for (const double ms : fastest)
            total_ms += ms;
        qps = {static_cast<double>(fastest.size()) / (total_ms / 1e3)};
        p50 = {quantile(fastest, 0.50)};
        p99 = {quantile(fastest, 0.99)};
    } else {
        for (const Window &window : windows(w, phase)) {
            qps.push_back(static_cast<double>(window.closedDone) /
                          (msBetween(window.begin, window.end) / 1e3));
            p50.push_back(quantile(window.latencyMs, 0.50));
            p99.push_back(quantile(window.latencyMs, 0.99));
        }
    }
    writer.metric("qps", "1/s", median(qps), qps);
    writer.metric("latency_p50_ms", "ms", median(p50), p50);
    // Printed for readers, not gated in BENCHMARK.json: a slow stretch of
    // the shared host moves the tail by more than the largest bound.
    writer.metric("latency_p99_ms", "ms", median(p99), p99);
    writer.metric("peak_rss_mb", "MiB", peakRssMiB());
}

/** The layer probes and per-layer metrics of a traced run. */
void
layerMetrics(ResultWriter &writer, const Workload &w, const Setup &setup,
             const Phase &plain, const Phase &traced, unsigned workers,
             Trace &trace, Outcome &outcome)
{
    Engine &engine = *setup.engine;

    // graph: cold build (set-up), warm reopen, mapped bytes.
    writer.metric("graph.build_ms", "ms", setup.graphBuildMs);
    std::vector<double> open_ms;
    uint64_t root = trace.open("probe:graph");
    for (const GraphUse &graph : w.graphs)
        for (const bool weighted : {false, true})
            for (int rep = 0; rep < kProbeReps; ++rep) {
                ugc::ugb::CacheReport report;
                const Clock::time_point start = Clock::now();
                ugc::datasets::loadCached(graph.code, graph.scale, weighted,
                                          ugc::ugb::CachePolicy::Auto,
                                          &report);
                const Clock::time_point end = Clock::now();
                trace.add("loadCached", root, 0, start, end, graph.code);
                if (report.hit)
                    open_ms.push_back(msBetween(start, end));
            }
    trace.close(root);
    writer.metric("graph.open_ms", "ms", median(open_ms), open_ms);
    writer.metric("graph.mapped_mb", "MiB",
                  static_cast<double>(engine.stats().mappedBytes) /
                      (1024.0 * 1024.0));

    // frontend: parse + sema of every builtin source.
    std::vector<double> parse_us;
    root = trace.open("probe:frontend");
    for (const auto &algorithm : ugc::algorithms::all())
        for (int rep = 0; rep < kProbeReps; ++rep) {
            const Clock::time_point start = Clock::now();
            ugc::frontend::compileSource(algorithm.source, algorithm.name);
            const Clock::time_point end = Clock::now();
            trace.add("compileSource", root, 0, start, end, algorithm.name);
            parse_us.push_back(msBetween(start, end) * 1e3);
        }
    trace.close(root);
    writer.metric("frontend.parse_us", "us", median(parse_us), parse_us);

    // midend: GraphVM::compile of every program-cache key.
    std::map<std::string, double> compile_us;
    std::map<std::string, std::unique_ptr<ugc::GraphVM>> vms;
    root = trace.open("probe:midend");
    for (const Op &op : w.warmup) {
        auto &vm = vms[op.query.backend];
        if (!vm)
            vm = Engine::makeBackend(op.query.backend,
                                     engineOptions(w, 1).backend);
        const ugc::ProgramPtr program = programFor(op);
        std::vector<double> reps;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            const Clock::time_point start = Clock::now();
            vm->compile(*program);
            const Clock::time_point end = Clock::now();
            trace.add("compile", root, 0, start, end, cacheKey(op));
            reps.push_back(msBetween(start, end) * 1e3);
        }
        compile_us[cacheKey(op)] = median(reps);
    }
    trace.close(root);
    std::vector<double> per_key;
    for (const auto &[key, us] : compile_us)
        per_key.push_back(us);
    writer.metric("midend.compile_us", "us", median(per_key), per_key);

    // Per-query layer shares from the traced phase's profiles.
    double wall = 0, run = 0, compile_if_uncached = 0, edges = 0;
    double kernels = 0, traversals = 0;
    std::vector<double> run_ms, overhead_us;
    for (const Record &rec : traced.records) {
        if (!rec.ok || rec.runMs < 0)
            continue;
        wall += rec.wallMs;
        run += rec.runMs;
        compile_if_uncached +=
            compile_us[cacheKey(opOf(w, rec.open, rec.index))] / 1e3;
        edges += static_cast<double>(rec.edges);
        kernels += rec.kernelTraversals;
        traversals += rec.traversals;
        run_ms.push_back(rec.runMs);
        overhead_us.push_back((rec.wallMs - rec.runMs - rec.compileMs) * 1e3);
    }
    writer.metric("midend.compile_share", "ratio",
                  compile_if_uncached / std::max(wall, 1e-9));
    writer.metric("vm.run_ms_p50", "ms", median(run_ms), run_ms);
    writer.metric("vm.run_share", "ratio", run / std::max(wall, 1e-9));
    writer.metric("vm.edges_per_s", "1/s", edges / std::max(run / 1e3, 1e-9));
    writer.metric("vm.sim_cycles", "cycles",
                  static_cast<double>(setup.warmupCycles));
    writer.metric("udf.kernel_traversal_share", "ratio",
                  kernels / std::max(traversals, 1.0));

    // runtime: utilization of the untraced phase, then the speedup probe.
    writer.metric("runtime.cpu_util", "ratio",
                  plain.cpuS / std::max(plain.wallS * workers, 1e-9));
    root = trace.open("probe:runtime");
    const ugc::Graph &probe_graph = *engine.graph(w.probeGraph);
    const auto kind = ugc::datasets::info(w.probeGraph).kind;
    double steals = 0;
    ugc::Session session(engine, sessionOptions());
    for (const char *name : {"bfs", "sssp", "cc", "pr"}) {
        const std::string algorithm = name;
        ugc::Query query;
        query.algorithm = algorithm;
        query.graph = w.probeGraph;
        query.start = pickStartVertex(probe_graph);
        query.arg3 = algorithm == "sssp"
                         ? (kind == ugc::datasets::GraphKind::Road ? 8192 : 2)
                         : (algorithm == "pr" ? 2 : 1);
        query.profiling = true; // both sides pay the profile; steals need it
        std::vector<double> serial, parallel;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            Clock::time_point start = Clock::now();
            const QueryResult one = session.wait(session.submit(query));
            trace.add("query", root, one.id, start, Clock::now(),
                      "serial/" + algorithm, one.wallMs);
            start = Clock::now();
            const QueryResult many = engine.run(query); // pool-parallel
            trace.add("query", root, many.id, start, Clock::now(),
                      "parallel/" + algorithm, many.wallMs);
            if (!one.ok() || !many.ok()) {
                outcome.fail("speedup probe " + algorithm + " failed");
                continue;
            }
            serial.push_back(one.wallMs);
            parallel.push_back(many.wallMs);
            if (many.run.profile)
                steals += many.run.profile->totalCounter("host.steals");
        }
        writer.metric("runtime.parallel_speedup." + algorithm, "ratio",
                      median(serial) / std::max(median(parallel), 1e-9));
    }
    trace.close(root);
    writer.metric("runtime.steals", "count", steals);

    // api: queue wait and cache behaviour of the untraced phase, engine
    // overhead (wallMs minus the run and compile scopes) of the traced one.
    std::vector<double> queue_ms;
    for (const Record &rec : plain.records)
        queue_ms.push_back(rec.queueMs());
    writer.metric("api.queue_wait_ms_p50", "ms", quantile(queue_ms, 0.50),
                  queue_ms);
    writer.metric("api.queue_wait_ms_p99", "ms", quantile(queue_ms, 0.99),
                  queue_ms);
    writer.metric("api.overhead_us_p50", "us", median(overhead_us),
                  overhead_us);
    const double hits = static_cast<double>(plain.after.cacheHits -
                                            plain.before.cacheHits);
    const double misses = static_cast<double>(plain.after.cacheMisses -
                                              plain.before.cacheMisses);
    writer.metric("api.cache_hit_ratio", "ratio",
                  hits / std::max(hits + misses, 1.0));

    // serve: the JSONL protocol around a sample of the workload's queries,
    // on a Server over the same (now warm) graph cache, like ugcd.
    std::ostringstream out;
    ugc::serve::ServerOptions server_options;
    server_options.engine = engineOptions(w, workers);
    server_options.engine.backend.numThreads = 1; // ugcd's default
    ugc::serve::Server server(server_options, out);
    server.handleLine("builtins");
    registerExtraPrograms(w, server.engine());
    for (const GraphUse &graph : w.graphs)
        server.handleLine("graph " + graph.code + " scale=" +
                          ugc::datasets::scaleName(graph.scale));
    std::vector<double> protocol_us;
    root = trace.open("probe:serve");
    const std::vector<Op> &stream = w.openRate > 0 ? w.open : w.closed;
    for (size_t i = 0; i < w.protocolSample; ++i) {
        const ugc::Query &q = stream[i % stream.size()].query;
        std::string line = "run algo=" + q.algorithm + " graph=" + q.graph +
                           " backend=" + q.backend +
                           " start=" + std::to_string(q.start) +
                           " arg3=" + std::to_string(q.arg3) +
                           " schedule=" + q.schedule + " class=" +
                           ugc::queryClassName(q.cls) + " wait=1";
        if (q.sources.size() > 1) {
            line += " sources=";
            for (size_t s = 0; s < q.sources.size(); ++s)
                line += (s ? "," : "") + std::to_string(q.sources[s]);
        }
        out.str("");
        const Clock::time_point start = Clock::now();
        server.handleLine(line);
        const Clock::time_point end = Clock::now();
        const std::string reply = out.str();
        const std::string wall_text = jsonField(reply, "wall_ms");
        if (jsonField(reply, "ok") != "true" || wall_text.empty()) {
            outcome.fail("protocol probe: " + reply);
            continue;
        }
        const double wall_ms = std::stod(wall_text);
        const uint64_t id = trace.add("handleLine", root, 0, start, end,
                                      label(stream[i % stream.size()]));
        trace.add("engine", id, 0, end - std::chrono::microseconds(
                                             static_cast<int64_t>(
                                                 wall_ms * 1e3)),
                  end, "", wall_ms);
        protocol_us.push_back(msBetween(start, end) * 1e3 - wall_ms * 1e3);
    }
    trace.close(root);
    writer.metric("serve.protocol_us_p50", "us", median(protocol_us),
                  protocol_us);

    // gen: how late the load thread submitted the latency stream's
    // queries (untraced phase; closed loops: after the freeing completion
    // was detected).
    const std::vector<double> lag = lags(w, plain);
    writer.metric("gen.lag_ms_p99", "ms", quantile(lag, 0.99), lag);
    writer.metric("gen.lag_ms_max", "ms", quantile(lag, 1.0), lag);

    // Tracing overhead: the traced phase's median latency over the
    // untraced one's.
    const double plain_p50 = median(latencies(w, plain));
    const double traced_p50 = median(latencies(w, traced));
    writer.metric("trace.latency_ratio", "ratio",
                  traced_p50 / std::max(plain_p50, 1e-9));
    trace.meta("untraced_latency_p50_ms", plain_p50);
    trace.meta("traced_latency_p50_ms", traced_p50);
}

// --- golden generation ----------------------------------------------------

/**
 * Regenerate golden/fig8_cycles.json through the direct path the fig8
 * binaries use (makeBackend → compile → execute on datasets::load graphs,
 * no Engine, no cache), and print the speedup tables in bench/fig8_*'s
 * format so they can be diffed against those binaries' output.
 */
int
writeGolden(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "ugcbench: cannot write %s\n", path.c_str());
        return 2;
    }
    const std::vector<Fig8Cell> cells = fig8Cells();
    ugc::BackendOptions fig8_options;
    fig8_options.scaleMemoryToDatasets = true;
    std::map<std::string, std::unique_ptr<ugc::GraphVM>> vms;
    std::map<std::string, ugc::Graph> graphs;
    std::map<std::string, std::vector<std::string>> rows;
    std::map<std::string, std::vector<std::vector<double>>> speedups;
    out << "{\"schema\": \"ugcbench.fig8_cycles.v1\",\n \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Fig8Cell &cell = cells[i];
        auto &vm = vms[cell.backend];
        if (!vm)
            vm = Engine::makeBackend(cell.backend, fig8_options);
        const bool weighted = needsWeights(cell.algorithm);
        const std::string graph_key = cell.graph + (weighted ? "/w" : "");
        if (!graphs.count(graph_key))
            graphs.emplace(graph_key,
                           ugc::datasets::load(cell.graph,
                                               ugc::datasets::Scale::Small,
                                               weighted));
        const ugc::Graph &graph = graphs.at(graph_key);
        ugc::RunInputs inputs;
        inputs.graph = &graph;
        inputs.args = {0, 0,
                       ugc::algorithms::byName(cell.algorithm)
                               .needsStartVertex
                           ? pickStartVertex(graph)
                           : 0,
                       cell.arg3};
        const auto cycles = [&](const ugc::Program &program) {
            return vm->execute(*vm->compile(program), inputs).cycles;
        };
        const ugc::Cycles base = cycles(*fig8BaselineProgram(cell));
        ugc::ProgramPtr tuned_program = ugc::algorithms::buildProgram(
            ugc::algorithms::byName(cell.algorithm));
        ugc::algorithms::applyTunedSchedule(
            *tuned_program, cell.algorithm, cell.backend,
            ugc::datasets::info(cell.graph).kind);
        const ugc::Cycles tuned = cycles(*tuned_program);
        out << "  {\"backend\": \"" << cell.backend << "\", \"graph\": \""
            << cell.graph << "\", \"algorithm\": \"" << cell.algorithm
            << "\", \"baseline\": " << base << ", \"tuned\": " << tuned
            << "}" << (i + 1 < cells.size() ? "," : "") << "\n";

        auto &row_names = rows[cell.backend];
        auto &table = speedups[cell.backend];
        if (row_names.empty() || row_names.back() != cell.graph) {
            row_names.push_back(cell.graph);
            table.emplace_back();
        }
        table.back().push_back(static_cast<double>(base) /
                               static_cast<double>(tuned));
    }
    out << " ]}\n";
    for (const std::string &backend : Engine::backendNames()) {
        std::printf("\n==== Fig 8 (%s): tuned-schedule speedup over "
                    "default-schedule baseline ====\n%-6s",
                    backend.c_str(), "");
        for (const char *alg : {"pr", "bfs", "sssp", "cc", "bc"})
            std::printf("%10s", alg);
        std::printf("\n");
        std::vector<double> all;
        for (size_t r = 0; r < rows[backend].size(); ++r) {
            std::printf("%-6s", rows[backend][r].c_str());
            for (const double value : speedups[backend][r]) {
                std::printf("%9.2fx", value);
                all.push_back(value);
            }
            std::printf("\n");
        }
        std::printf("geomean %.2fx   max %.2fx\n", ugc::geoMean(all),
                    *std::max_element(all.begin(), all.end()));
    }
    return out ? 0 : 2;
}

// --- one run --------------------------------------------------------------

int
run(const Args &args)
{
    Workload w = describe(args.workload);
    const Golden golden = w.passes ? loadGolden(args.golden) : Golden{};
    const unsigned workers = poolWorkers();
    Trace trace(!args.trace.empty());

    HostContext host = currentHost();
    host.poolWorkers = workers;
    host.gitSha = args.gitSha;
    host.seed = args.seed;
    ResultWriter writer(w.name, args.seconds, trace.on(), host);

    std::vector<double> setup_seconds;
    Setup setup;
    std::string cache_dir;
    for (int k = 0; k < (trace.on() ? 1 : kSetups); ++k) {
        setup.engine.reset();
        if (!cache_dir.empty())
            std::filesystem::remove_all(cache_dir);
        cache_dir = args.workdir + "/graph-cache-" + std::to_string(k);
        setup = setUp(w, args.seed, workers, cache_dir, trace);
        setup_seconds.push_back(setup.seconds);
    }

    // A traced run splits its seconds between an untraced and a traced
    // phase, so it takes no longer than an untraced one.
    const double seconds = trace.on() ? args.seconds / 2 : args.seconds;
    Outcome outcome;
    const Phase plain = runPhase(w, *setup.engine, seconds, false, trace);
    checkPhase(w, *setup.engine, plain, golden, outcome);
    endToEndMetrics(writer, w, plain, setup_seconds);
    if (trace.on()) {
        const Phase traced = runPhase(w, *setup.engine, seconds, true, trace);
        checkPhase(w, *setup.engine, traced, golden, outcome);
        layerMetrics(writer, w, setup, plain, traced, workers, trace,
                     outcome);
        if (!trace.write(args.trace))
            throw std::runtime_error("cannot write trace " + args.trace);
    }
    setup.engine.reset();
    std::filesystem::remove_all(cache_dir);

    // Open-loop latencies run from the due time, so they are only as good
    // as the generator's punctuality.
    const double lag_p99 = quantile(lags(w, plain), 0.99);
    if (w.openRate > 0 && lag_p99 > kMaxLagMs)
        writer.invalidate("load generator lag p99 " +
                          std::to_string(lag_p99) + " ms > " +
                          std::to_string(kMaxLagMs) + " ms");
    writer.outcome(outcome.attempted, outcome.failed);
    for (const std::string &note : outcome.notes)
        writer.note(note);
    writer.print();
    if (!writer.write(args.json))
        throw std::runtime_error("cannot write " + args.json);
    return outcome.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace ugcbench

int
main(int argc, char *argv[])
{
    try {
        const ugcbench::Args args = ugcbench::parseArgs(argc, argv);
        if (!args.writeGolden.empty())
            return ugcbench::writeGolden(args.writeGolden);
        return ugcbench::run(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "ugcbench: %s\n", error.what());
        return 2;
    }
}
