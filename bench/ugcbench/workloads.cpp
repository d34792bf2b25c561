#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "algorithms/algorithms.h"
#include "sched/apply.h"
#include "support/rng.h"

namespace ugcbench {

using ugc::datasets::GraphKind;
using ugc::datasets::Scale;

namespace {

const std::vector<std::string> kAlgorithms = {"pr", "bfs", "sssp", "cc",
                                              "bc"};

GraphKind
kindOf(const std::string &graph)
{
    return ugc::datasets::info(graph).kind;
}

/** argv[3]: PR iterations, the SSSP delta of the graph class (8192 on
 *  road weights, 2 on social weights — bench/common's convention), 1
 *  otherwise. */
int64_t
arg3For(const std::string &algorithm, GraphKind kind, int64_t pr_iterations)
{
    if (algorithm == "pr")
        return pr_iterations;
    if (algorithm == "sssp")
        return kind == GraphKind::Road ? 8192 : 2;
    return 1;
}

Op
makeOp(const std::string &algorithm, const std::string &graph,
       const std::string &schedule, ugc::VertexId start, int64_t arg3,
       ugc::QueryClass cls = ugc::QueryClass::Interactive)
{
    Op op;
    op.algorithm = algorithm;
    op.query.algorithm = algorithm;
    op.query.graph = graph;
    op.query.schedule = schedule;
    op.query.start = start;
    op.query.arg3 = arg3;
    op.query.cls = cls;
    return op;
}

template <typename T>
void
shuffle(std::vector<T> &items, ugc::Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBounded(i)]);
}

/** Start-vertex candidates: out-degree at least the average, so a seeded
 *  start lands in the bulk of the graph rather than in a tiny component
 *  whose query would finish instantly. */
std::vector<ugc::VertexId>
startCandidates(const ugc::Graph &graph)
{
    const ugc::EdgeId avg = std::max<ugc::EdgeId>(
        graph.numEdges() / std::max(graph.numVertices(), 1), 1);
    std::vector<ugc::VertexId> out;
    for (ugc::VertexId v = 0; v < graph.numVertices(); ++v)
        if (graph.outDegree(v) >= avg)
            out.push_back(v);
    if (out.empty())
        out.push_back(0);
    return out;
}

/** One op per program-cache key, first occurrence in @p canonical order. */
std::vector<Op>
oneOpPerKey(const std::vector<Op> &canonical)
{
    std::set<std::string> seen;
    std::vector<Op> out;
    for (const Op &op : canonical)
        if (seen.insert(cacheKey(op)).second)
            out.push_back(op);
    return out;
}

/**
 * A serving stream: blocks holding every (graph, algorithm, schedule)
 * combination once, each block shuffled, so the mix is exact every block
 * whatever the seed; starts drawn from startCandidates(). Every
 * @p fuse_every-th BFS becomes an 8-root multi-source batch (0 = never).
 */
std::vector<Op>
servingStream(ugc::Engine &engine, const std::vector<std::string> &graphs,
              const std::vector<std::string> &algorithms,
              const std::vector<std::string> &schedules,
              int64_t pr_iterations, ugc::QueryClass cls, size_t blocks,
              size_t fuse_every, ugc::Rng &rng)
{
    std::map<std::string, std::vector<ugc::VertexId>> candidates;
    for (const std::string &graph : graphs)
        candidates[graph] = startCandidates(*engine.graph(graph));

    std::vector<Op> block;
    for (const std::string &graph : graphs)
        for (const std::string &algorithm : algorithms)
            for (const std::string &schedule : schedules)
                block.push_back(makeOp(
                    algorithm, graph, schedule, 0,
                    arg3For(algorithm, kindOf(graph), pr_iterations), cls));

    std::vector<Op> stream;
    size_t bfs_seen = 0;
    for (size_t b = 0; b < blocks; ++b) {
        shuffle(block, rng);
        for (Op op : block) {
            const auto &pool = candidates[op.query.graph];
            op.query.start = pool[rng.nextBounded(pool.size())];
            if (op.algorithm == "bfs" && fuse_every &&
                ++bfs_seen % fuse_every == 0) {
                std::set<ugc::VertexId> roots;
                while (roots.size() < std::min<size_t>(8, pool.size()))
                    roots.insert(pool[rng.nextBounded(pool.size())]);
                op.query.sources.assign(roots.begin(), roots.end());
            }
            stream.push_back(std::move(op));
        }
    }
    return stream;
}

/** The canonical (seed-free) ops of a serving stream: every combination
 *  once from the fig8 start vertex. */
std::vector<Op>
canonicalOps(ugc::Engine &engine, const std::vector<std::string> &graphs,
             const std::vector<std::string> &algorithms,
             const std::vector<std::string> &schedules, int64_t pr_iterations,
             ugc::QueryClass cls)
{
    std::vector<Op> ops;
    for (const std::string &graph : graphs) {
        const ugc::VertexId start = pickStartVertex(*engine.graph(graph));
        for (const std::string &algorithm : algorithms)
            for (const std::string &schedule : schedules)
                ops.push_back(makeOp(
                    algorithm, graph, schedule, start,
                    arg3For(algorithm, kindOf(graph), pr_iterations), cls));
    }
    return ops;
}

std::vector<Op>
gridPass(ugc::Engine &engine)
{
    std::vector<Op> ops;
    for (const Fig8Cell &cell : fig8Cells()) {
        const bool uses_start =
            ugc::algorithms::byName(cell.algorithm).needsStartVertex;
        const ugc::VertexId start =
            uses_start ? pickStartVertex(*engine.graph(
                             cell.graph, needsWeights(cell.algorithm)))
                       : 0;
        const std::string prefix =
            cell.backend + "/" + cell.graph + "/" + cell.algorithm + "/";
        const std::string base_name = fig8BaselineName(cell);
        Op base = makeOp(cell.algorithm, cell.graph, "default", start,
                         cell.arg3);
        if (!base_name.empty())
            base.query.algorithm = base_name;
        base.query.backend = cell.backend;
        base.cell = prefix + "baseline";
        Op tuned = makeOp(cell.algorithm, cell.graph, "tuned", start,
                          cell.arg3);
        tuned.query.backend = cell.backend;
        tuned.cell = prefix + "tuned";
        ops.push_back(std::move(base));
        ops.push_back(std::move(tuned));
    }
    return ops;
}

const std::vector<std::string> kLightGraphs = {"RN", "PK", "LJ"};
const std::vector<std::string> kHeavyAlgorithms = {"bfs", "sssp", "cc",
                                                   "pr"};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve-light", "serve-heavy", "serve-mixed", "fig8-grid"};
    return names;
}

Workload
describe(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "serve-light") {
        for (const std::string &code : kLightGraphs)
            w.graphs.push_back({code, Scale::Small});
        w.inFlight = 4;
        w.probeGraph = "LJ";
        w.protocolSample = 200;
    } else if (name == "serve-heavy") {
        w.graphs = {{"TW", Scale::Medium}};
        w.probeGraph = "TW";
        w.protocolSample = 20;
    } else if (name == "serve-mixed") {
        w.graphs = {{"TW", Scale::Medium}, {"RN", Scale::Small}};
        w.openRate = 400.0;
        w.probeGraph = "TW";
        w.protocolSample = 20;
    } else if (name == "fig8-grid") {
        for (const auto &info : ugc::datasets::all())
            w.graphs.push_back({info.name, Scale::Small});
        w.scaleMemoryToDatasets = true;
        w.passes = true;
        w.probeGraph = "TW";
        w.protocolSample = 40;
    } else {
        std::string known;
        for (const std::string &n : workloadNames())
            known += " " + n;
        throw std::invalid_argument("unknown workload '" + name +
                                    "'; known:" + known);
    }
    return w;
}

void
registerExtraPrograms(const Workload &workload, ugc::Engine &engine)
{
    if (!workload.passes)
        return;
    for (const Fig8Cell &cell : fig8Cells()) {
        const std::string name = fig8BaselineName(cell);
        if (!name.empty() && !engine.hasAlgorithm(name))
            engine.registerProgram(name, fig8BaselineProgram(cell));
    }
}

void
generate(Workload &w, ugc::Engine &engine, uint64_t seed)
{
    ugc::Rng rng(seed);
    const auto batch = ugc::QueryClass::Batch;
    const auto interactive = ugc::QueryClass::Interactive;
    if (w.name == "serve-light") {
        // 1 in 20 BFS queries is an 8-root batch: traffic for fusion.
        w.closed = servingStream(engine, kLightGraphs, kAlgorithms,
                                 {"default", "tuned"}, 5, interactive, 400,
                                 20, rng);
        w.warmup = oneOpPerKey(canonicalOps(engine, kLightGraphs,
                                            kAlgorithms, {"default", "tuned"},
                                            5, interactive));
    } else if (w.name == "serve-heavy" || w.name == "serve-mixed") {
        w.closed = servingStream(engine, {"TW"}, kHeavyAlgorithms,
                                 {"default"}, 2, batch, 1024, 0, rng);
        w.warmup = oneOpPerKey(canonicalOps(engine, {"TW"}, kHeavyAlgorithms,
                                            {"default"}, 2, batch));
        if (w.name == "serve-mixed") {
            w.open = servingStream(engine, {"RN"}, {"bfs", "sssp"},
                                   {"default"}, 1, interactive, 8192, 0, rng);
            for (Op &op : oneOpPerKey(canonicalOps(engine, {"RN"},
                                                   {"bfs", "sssp"},
                                                   {"default"}, 1,
                                                   interactive)))
                w.warmup.push_back(std::move(op));
        }
    } else { // fig8-grid
        const std::vector<Op> pass = gridPass(engine);
        w.warmup = oneOpPerKey(pass);
        w.closed = pass;
        shuffle(w.closed, rng);
    }
}

ugc::VertexId
pickStartVertex(const ugc::Graph &graph)
{
    const ugc::EdgeId avg =
        graph.numEdges() / std::max(graph.numVertices(), 1);
    for (ugc::VertexId v = 0; v < graph.numVertices(); ++v)
        if (graph.outDegree(v) >= std::max<ugc::EdgeId>(avg, 1))
            return v;
    return 0;
}

bool
needsWeights(const std::string &algorithm)
{
    return ugc::algorithms::byName(algorithm).needsWeights;
}

std::vector<Fig8Cell>
fig8Cells()
{
    std::vector<std::string> all_graphs;
    for (const auto &info : ugc::datasets::all())
        all_graphs.push_back(info.name);
    // PR iterations per GraphVM follow bench/fig8_*.cpp: the cycle-level
    // simulators (Swarm, HammerBlade) run 2, the others 10 (§IV-D).
    const std::vector<std::tuple<std::string, std::vector<std::string>,
                                 int64_t>>
        blocks = {{"cpu", all_graphs, 10},
                  {"gpu", all_graphs, 10},
                  {"swarm", all_graphs, 2},
                  {"hb", ugc::datasets::hammerBladeSubset(), 2}};
    std::vector<Fig8Cell> cells;
    for (const auto &[backend, graphs, pr_iterations] : blocks)
        for (const std::string &graph : graphs)
            for (const std::string &algorithm : kAlgorithms)
                cells.push_back({backend, graph, algorithm,
                                 arg3For(algorithm, kindOf(graph),
                                         pr_iterations)});
    return cells;
}

std::string
fig8BaselineName(const Fig8Cell &cell)
{
    if (cell.backend != "hb" ||
        (cell.algorithm != "bfs" && cell.algorithm != "bc" &&
         cell.algorithm != "sssp"))
        return "";
    return "hb-base-" + cell.algorithm +
           (kindOf(cell.graph) == GraphKind::Road ? "-road" : "-social");
}

ugc::ProgramPtr
fig8BaselineProgram(const Fig8Cell &cell)
{
    ugc::ProgramPtr program = ugc::algorithms::buildProgram(
        ugc::algorithms::byName(cell.algorithm));
    if (fig8BaselineName(cell).empty())
        return program;
    ugc::SimpleHBSchedule baseline;
    baseline.configLoadBalance(ugc::HBLoadBalance::VertexBased)
        .configDirection(ugc::HBDirection::Hybrid)
        .configDelta(kindOf(cell.graph) == GraphKind::Road ? 8192 : 2);
    ugc::applySchedule(*program, "s1", baseline);
    if (cell.algorithm == "bc")
        ugc::applySchedule(*program, "s3", baseline);
    return program;
}

std::string
cacheKey(const Op &op)
{
    std::string key = op.query.algorithm + "|" + op.query.schedule + "|" +
                      op.query.backend;
    if (op.query.schedule == "tuned")
        key += "|" + std::to_string(static_cast<int>(kindOf(op.query.graph)));
    return key;
}

ugc::ProgramPtr
programFor(const Op &op)
{
    const Fig8Cell cell{op.query.backend, op.query.graph, op.algorithm};
    ugc::ProgramPtr program =
        op.query.algorithm == op.algorithm
            ? ugc::algorithms::buildProgram(
                  ugc::algorithms::byName(op.algorithm))
            : fig8BaselineProgram(cell);
    if (op.query.schedule == "tuned")
        ugc::algorithms::applyTunedSchedule(*program, op.algorithm,
                                            op.query.backend,
                                            kindOf(op.query.graph));
    return program;
}

} // namespace ugcbench
