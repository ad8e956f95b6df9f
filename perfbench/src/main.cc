/**
 * @file
 * perfbench: one workload per invocation.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * Prints a metric table, then as its last stdout line the JSON result
 * {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
 * when untraced, per-layer metrics when traced. Writes the full report
 * (and, when traced, the Chrome trace of the bench-side spans) under
 * --out. Exits 1 when a correctness check fails.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<train_lego|serve_orbit|serve_tiles|accel_trace> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".";
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::atoll(val);
        else if (key == "--seconds")
            seconds = std::atof(val);
        else if (key == "--trace")
            trace = std::atoi(val);
        else if (key == "--out")
            out_dir = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || workload.empty() || seed < 0 || seconds <= 0 ||
        (trace != 0 && trace != 1))
        return usage();

    void (*run)(Context &) = nullptr;
    if (workload == "train_lego")
        run = runTrainLego;
    else if (workload == "serve_orbit")
        run = runServeOrbit;
    else if (workload == "serve_tiles")
        run = runServeTiles;
    else if (workload == "accel_trace")
        run = runAccelTrace;
    else
        return usage();

    Context ctx(trace == 1);
    ctx.seed = static_cast<uint64_t>(seed);
    ctx.seconds = seconds;
    run(ctx);

    const std::string stem = out_dir + "/" + workload + "-seed" +
                             std::to_string(seed) +
                             (ctx.traced ? "-traced" : "");
    ctx.report.writeJson(stem + ".json", workload, ctx.seed, ctx.traced);
    if (ctx.traced && !ctx.tracer.writeChromeTrace(stem + ".trace.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     stem.c_str());
    ctx.report.printTable(ctx.traced);
    if (!ctx.report.printResultLine(ctx.traced))
        return 1;
    return ctx.report.correct() ? 0 : 1;
}
