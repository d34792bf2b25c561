/**
 * @file
 * The four ugcbench workloads (README.md explains why each exists): their
 * graphs, load shape, and the seeded operation streams they submit.
 */
#ifndef UGCBENCH_WORKLOADS_H
#define UGCBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/ugc.h"

namespace ugcbench {

/** One operation: a query plus what it computes. */
struct Op
{
    ugc::Query query;
    std::string algorithm; ///< the evaluated algorithm it runs (bfs, ...)
    std::string cell;      ///< fig8-grid: "<backend>/<graph>/<alg>/<variant>"
};

/** A dataset registered under its own code. */
struct GraphUse
{
    std::string code;
    ugc::datasets::Scale scale;
};

struct Workload
{
    std::string name;
    std::vector<GraphUse> graphs;
    bool scaleMemoryToDatasets = false; ///< fig8's scaled machine configs
    unsigned inFlight = 1;              ///< closed-loop depth
    double openRate = 0.0;              ///< open-loop queries/s (0 = none)
    bool passes = false;   ///< the closed stream is one grid pass, run whole
    std::string probeGraph; ///< graph of the parallel-speedup probe
    size_t protocolSample = 0; ///< ops replayed through Server::handleLine

    // Filled by generate().
    std::vector<Op> closed; ///< closed-loop stream (cycled)
    std::vector<Op> open;   ///< open-loop stream (cycled); latency stream
    std::vector<Op> warmup; ///< one op per program-cache key, seed-free
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Static shape of workload @p name. @throws std::invalid_argument. */
Workload describe(const std::string &name);

/** Register the programs a workload adds to the builtins (fig8's
 *  HammerBlade hybrid baselines). */
void registerExtraPrograms(const Workload &workload, ugc::Engine &engine);

/** Fill the op streams from @p seed over the engine's graphs. */
void generate(Workload &workload, ugc::Engine &engine, uint64_t seed);

/** First vertex whose out-degree is at least the average (bench/common's
 *  fig8 start-vertex rule). */
ugc::VertexId pickStartVertex(const ugc::Graph &graph);

/** Does @p algorithm traverse a weighted graph? */
bool needsWeights(const std::string &algorithm);

/** One Fig 8 cell: algorithm × graph on one GraphVM. */
struct Fig8Cell
{
    std::string backend;
    std::string graph;
    std::string algorithm;
    int64_t arg3 = 1; ///< PR iterations / SSSP delta (fig8 conventions)
};

/** Every Fig 8 cell in the paper's order: cpu, gpu and swarm on all ten
 *  datasets, hb on its six-graph subset; five algorithms each. */
std::vector<Fig8Cell> fig8Cells();

/** The fig8 baseline program of a cell: the unscheduled builtin, except
 *  on HammerBlade, whose bfs/bc/sssp baselines already use hybrid
 *  traversal (bench/fig8_common.h, §IV-D). */
ugc::ProgramPtr fig8BaselineProgram(const Fig8Cell &cell);

/** Name under which the grid registers a non-builtin baseline; empty
 *  when the builtin itself is the baseline. */
std::string fig8BaselineName(const Fig8Cell &cell);

/** The program the Engine compiles for @p op: its registered program with
 *  the op's schedule applied. */
ugc::ProgramPtr programFor(const Op &op);

/** The Engine's program-cache identity of @p op: algorithm, schedule,
 *  backend, and the graph class when the schedule is tuned. */
std::string cacheKey(const Op &op);

} // namespace ugcbench

#endif // UGCBENCH_WORKLOADS_H
