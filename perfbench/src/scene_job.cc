#include "scene_job.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/instant3d_config.hh"
#include "core/workload.hh"
#include "scene/scene.hh"
#include "trace/mem_trace.hh"
#include "trace/pattern.hh"

namespace perfbench {

using namespace instant3d;

SceneScale
trainScale()
{
    return SceneScale{32, 12, 3, 128, 128, 48, 8, 14, 16};
}

SceneScale
serveScale()
{
    return SceneScale{20, 6, 2, 64, 96, 32, 4, 12, 16};
}

SceneScale
traceScale()
{
    return SceneScale{20, 6, 2, 64, 64, 48, 4, 12, 16};
}

int
occupancyPeriod()
{
    return TrainConfig{}.occupancyUpdatePeriod;
}

Dataset
buildDataset(const std::string &scene, const SceneScale &scale)
{
    DatasetConfig cfg;
    cfg.numTrainViews = scale.trainViews;
    cfg.numTestViews = scale.testViews;
    cfg.imageWidth = scale.imageSize;
    cfg.imageHeight = scale.imageSize;
    cfg.renderOpts.numSteps = scale.gtSteps;
    return makeDataset(makeSyntheticScene(scene), cfg);
}

std::unique_ptr<Trainer>
buildTrainer(const Dataset &dataset, const SceneScale &scale,
             uint64_t seed, bool phase_times)
{
    HashEncodingConfig base;
    base.numLevels = scale.gridLevels;
    base.featuresPerEntry = 2;
    base.log2TableSize = scale.log2Table;
    base.baseResolution = 8;
    base.growthFactor = 1.6f;
    const Instant3dConfig algo = instant3dShippedConfig();
    FieldConfig fcfg = algo.makeFieldConfig(base);
    fcfg.hiddenDim = scale.hiddenDim;

    TrainConfig tcfg;
    tcfg.raysPerBatch = scale.raysPerBatch;
    tcfg.samplesPerRay = scale.samplesPerRay;
    tcfg.adam.lr = 1e-2f;
    tcfg.useOccupancyGrid = true;
    tcfg.collectPhaseTimes = phase_times;
    tcfg.seed = seed;
    algo.applyTo(tcfg);
    return std::make_unique<Trainer>(dataset, fcfg, tcfg);
}

void
mergeInto(IterLog &dst, const IterLog &src)
{
    auto append = [](std::vector<double> &d, const std::vector<double> &s) {
        d.insert(d.end(), s.begin(), s.end());
    };
    append(dst.stepMs, src.stepMs);
    append(dst.plainMs, src.plainMs);
    append(dst.refreshMs, src.refreshMs);
    dst.points += src.points;
    dst.sparseEntries += src.sparseEntries;
    dst.nonFinite += src.nonFinite;
    TrainPhaseTimes &d = dst.phaseSum;
    const TrainPhaseTimes &s = src.phaseSum;
    d.march += s.march;
    d.forward += s.forward;
    d.backward += s.backward;
    d.reduce += s.reduce;
    d.optimizer += s.optimizer;
    d.zeroGrad += s.zeroGrad;
    d.occRefresh += s.occRefresh;
}

void
timedIteration(Trainer &trainer, IterLog &log, Tracer &tracer,
               uint64_t parent)
{
    const int it = trainer.iteration();
    // The trainer refreshes the grid at every nonzero multiple of the
    // period (TrainConfig::occupancyUpdatePeriod).
    const bool refresh = it > 0 && it % occupancyPeriod() == 0;
    const double t0 = nowSeconds();
    TrainStats st;
    {
        Span span(tracer, refresh ? "trainer.refresh_step"
                                  : "trainer.step",
                  parent, static_cast<uint64_t>(it) + 1);
        st = trainer.trainIteration();
    }
    const double ms = (nowSeconds() - t0) * 1e3;
    log.stepMs.push_back(ms);
    (refresh ? log.refreshMs : log.plainMs).push_back(ms);
    log.points += st.pointsQueried;
    log.sparseEntries += st.sparseEntriesStepped;
    if (!std::isfinite(st.loss))
        log.nonFinite++;
    TrainPhaseTimes &p = log.phaseSum;
    p.march += st.phases.march;
    p.forward += st.phases.forward;
    p.backward += st.phases.backward;
    p.reduce += st.phases.reduce;
    p.optimizer += st.phases.optimizer;
    p.zeroGrad += st.phases.zeroGrad;
    p.occRefresh += st.phases.occRefresh;
}

TraceJob
captureTrace(Trainer &trainer, const SceneScale &scale, Tracer &tracer,
             uint64_t parent, IterLog *log)
{
    static const TrainingWorkload paper =
        makeInstant3dWorkload("NeRF-Synthetic", instant3dShippedConfig());
    Span job(tracer, "trace.job", parent);
    TraceJob out;

    double t0 = nowSeconds();
    MemTraceCollector collector;
    std::vector<GridAccess> reads, writes;
    {
        Span span(tracer, "trace.capture", job.id());
        trainer.field().densityGrid().setTraceSink(&collector);
        if (log) {
            timedIteration(trainer, *log, tracer, span.id());
        } else {
            Span step(tracer, "trainer.step", span.id());
            trainer.trainIteration();
        }
        trainer.field().densityGrid().setTraceSink(nullptr);
        reads = batchMajorOrder(collector.reads(), scale.samplesPerRay);
        writes = collector.writes();
    }
    double t1 = nowSeconds();
    {
        Span span(tracer, "trace.calibrate", job.id());
        out.calibration = calibrateFromTrace(reads, writes);
    }
    double t2 = nowSeconds();
    {
        Span span(tracer, "accel.simulate", job.id());
        Accelerator accel(AcceleratorConfig{}, out.calibration);
        out.result = accel.simulate(paper);
    }
    double t3 = nowSeconds();
    out.captureMs = (t1 - t0) * 1e3;
    out.calibrateMs = (t2 - t1) * 1e3;
    out.simulateMs = (t3 - t2) * 1e3;
    out.reads = reads.size();
    out.writes = writes.size();
    return out;
}

double
meanSimSeconds(const std::vector<TraceJob> &jobs)
{
    double sum = 0.0;
    for (const TraceJob &j : jobs)
        sum += j.result.totalSeconds;
    return jobs.empty() ? 0.0 : sum / static_cast<double>(jobs.size());
}

void
reportTrainerLayers(Report &report, const IterLog &log,
                    double occupied_fraction)
{
    const double n = static_cast<double>(log.stepMs.size());
    if (log.stepMs.empty())
        return;
    report.layerPct("trainer.step_ms.p50", percentile(log.plainMs, 0.5));
    report.layerPct("trainer.refresh_step_ms.p50",
                    percentile(log.refreshMs, 0.5));
    double plain = 0.0, refresh = 0.0;
    for (double v : log.plainMs)
        plain += v;
    for (double v : log.refreshMs)
        refresh += v;
    report.layer("trainer.refresh_share", refresh / (plain + refresh),
                 log.stepMs.size());
    report.layer("trainer.points_per_step",
                 static_cast<double>(log.points) / n, log.stepMs.size());
    report.layer("trainer.sparse_entries_per_step",
                 static_cast<double>(log.sparseEntries) / n,
                 log.stepMs.size());
    const TrainPhaseTimes &p = log.phaseSum;
    const std::pair<const char *, double> phases[] = {
        {"train.phase.march_ms", p.march},
        {"train.phase.forward_ms", p.forward},
        {"train.phase.backward_ms", p.backward},
        {"train.phase.reduce_ms", p.reduce},
        {"train.phase.optimizer_ms", p.optimizer},
        {"train.phase.zero_grad_ms", p.zeroGrad},
        {"train.phase.occ_refresh_ms", p.occRefresh},
    };
    for (const auto &ph : phases)
        report.layer(ph.first, ph.second * 1e3 / n, log.stepMs.size());
    report.layer("occupancy.occupied_fraction", occupied_fraction);
}

void
reportTraceLayers(Report &report, const std::vector<TraceJob> &jobs)
{
    if (jobs.empty())
        return;
    std::vector<double> cap, cal, sim;
    double reads = 0, writes = 0, util = 0, merge = 0, grid = 0, mlp = 0,
           dram = 0;
    for (const TraceJob &j : jobs) {
        cap.push_back(j.captureMs);
        cal.push_back(j.calibrateMs);
        sim.push_back(j.simulateMs);
        reads += static_cast<double>(j.reads);
        writes += static_cast<double>(j.writes);
        util += j.calibration.frmUtil16;
        merge += j.calibration.bumMergeRatio;
        grid += j.result.gridSeconds;
        mlp += j.result.mlpSeconds;
        dram += j.result.dramBytesPerIter;
    }
    const uint64_t n = jobs.size();
    const double dn = static_cast<double>(n);
    report.layer("trace.capture_ms", median(cap), n);
    report.layer("trace.calibrate_ms", median(cal), n);
    report.layer("accel.simulate_ms", median(sim), n);
    report.layer("trace.reads", reads / dn, n);
    report.layer("trace.writes", writes / dn, n);
    report.layer("frm.util16", util / dn, n);
    report.layer("bum.merge_ratio", merge / dn, n);
    report.layer("accel.grid_s", grid / dn, n);
    report.layer("accel.mlp_s", mlp / dn, n);
    report.layer("accel.dram_bytes_per_iter", dram / dn, n);
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace perfbench
