/**
 * @file
 * The scene pipeline every workload shares, written only against the
 * program's public API: build a ground-truth dataset, train a shipped
 * Instant-3D field on it, capture density-grid traces, calibrate the
 * FRM/BUM models from them and simulate the accelerator at paper
 * scale. Each step can be timed and wrapped in a bench-side span.
 */
#ifndef PERFBENCH_SCENE_JOB_HH
#define PERFBENCH_SCENE_JOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "nerf/trainer.hh"
#include "report.hh"
#include "spans.hh"

namespace perfbench {

/** Dataset and model size of one workload's scenes. */
struct SceneScale
{
    int imageSize;
    int trainViews;
    int testViews;
    int gtSteps;       //!< Ground-truth ray-march steps.
    int raysPerBatch;
    int samplesPerRay;
    int gridLevels;
    uint32_t log2Table; //!< Baseline (NGP) table size before the split.
    int hiddenDim;
};

/** train_lego: the headline training job. */
SceneScale trainScale();
/** serve_*: scenes small enough to train three times in set-up. */
SceneScale serveScale();
/** accel_trace: the reduced scale of the accelerator-calibration runs. */
SceneScale traceScale();

/** Occupancy refresh period of every trainer (the program default). */
int occupancyPeriod();

/** Ground-truth dataset of a synthetic scene ("lego", ...). */
instant3d::Dataset buildDataset(const std::string &scene,
                                const SceneScale &scale);

/**
 * Trainer with the shipped Instant-3D config (S_D:S_C 1:0.25,
 * F_D:F_C 1:0.5), the occupancy grid and auto threads.
 * `phase_times` turns on TrainConfig::collectPhaseTimes.
 */
std::unique_ptr<instant3d::Trainer>
buildTrainer(const instant3d::Dataset &dataset, const SceneScale &scale,
             uint64_t seed, bool phase_times);

/** Per-iteration observations of training, taken around the calls. */
struct IterLog
{
    std::vector<double> stepMs;    //!< Every iteration.
    std::vector<double> plainMs;   //!< Iterations without a refresh.
    std::vector<double> refreshMs; //!< Occupancy-refresh iterations.
    uint64_t points = 0;
    uint64_t sparseEntries = 0;
    uint64_t nonFinite = 0;        //!< Iterations with a non-finite loss.
    instant3d::TrainPhaseTimes phaseSum; //!< collectPhaseTimes only.
};

/** Append `src`'s observations to `dst`. */
void mergeInto(IterLog &dst, const IterLog &src);

/** One trainIteration(), timed and logged. */
void timedIteration(instant3d::Trainer &trainer, IterLog &log,
                    Tracer &tracer, uint64_t parent);

/** One captured-and-simulated density-grid trace. */
struct TraceJob
{
    double captureMs = 0.0;   //!< Traced iteration + batch-major order.
    double calibrateMs = 0.0; //!< calibrateFromTrace.
    double simulateMs = 0.0;  //!< Accelerator::simulate.
    uint64_t reads = 0;
    uint64_t writes = 0;
    instant3d::TraceCalibration calibration;
    instant3d::AcceleratorResult result;
};

/**
 * Train one more iteration with a trace sink on the density grid,
 * calibrate FRM/BUM from the captured accesses and simulate the shipped
 * accelerator at paper scale. The iteration goes to `log` when given.
 */
TraceJob captureTrace(instant3d::Trainer &trainer, const SceneScale &scale,
                      Tracer &tracer, uint64_t parent, IterLog *log);

/** Mean simulated training seconds per scene over `jobs`. */
double meanSimSeconds(const std::vector<TraceJob> &jobs);

/** Trainer and occupancy layer metrics from a training log. */
void reportTrainerLayers(Report &report, const IterLog &log,
                         double occupied_fraction);

/** Trace/accel layer metrics from captured traces. */
void reportTraceLayers(Report &report, const std::vector<TraceJob> &jobs);

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/** Median of a non-empty sample set. */
double median(std::vector<double> v);

/** Bitwise equality of two doubles (determinism checks). */
bool sameBits(double a, double b);

} // namespace perfbench

#endif // PERFBENCH_SCENE_JOB_HH
