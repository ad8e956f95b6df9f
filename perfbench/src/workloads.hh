/**
 * @file
 * The four workloads. Each reads only its seed and run length from the
 * Context, fills the Context's Report, and records bench-side spans in
 * the Context's Tracer when the run is traced.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"
#include "spans.hh"

namespace perfbench {

struct Context
{
    explicit Context(bool traced_run)
        : traced(traced_run), tracer(traced_run)
    {}

    uint64_t seed = 1;
    double seconds = 15.0; //!< Measured loop length (serving workloads).
    const bool traced;
    Tracer tracer;
    Report report;
};

void runTrainLego(Context &ctx);
void runServeOrbit(Context &ctx);
void runServeTiles(Context &ctx);
void runAccelTrace(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
