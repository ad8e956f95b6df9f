/**
 * @file
 * accel_trace: the captureSceneTrace path over all eight synthetic
 * scenes. Each scene is warmed up briefly, then kTraced training
 * iterations run with a trace sink on the density grid; every captured
 * trace calibrates the FRM/BUM models and the shipped accelerator is
 * simulated at paper scale with that calibration. Most host time goes
 * to the traced iterations, calibration and simulation.
 *
 * Simulated results are exact: they repeat bit for bit across the
 * kReps repetitions (the first untraced in a traced run) and must not
 * move under a host-only change. The model is not validated against
 * hardware, so no error figure is reported.
 */
#include "scene/scene.hh"
#include "scene_job.hh"
#include "workloads.hh"

namespace perfbench {

using namespace instant3d;

namespace {

constexpr int kReps = 4;
constexpr int kWarmup = 40;
constexpr int kTraced = 6;

} // namespace

void
runAccelTrace(Context &ctx)
{
    Report &r = ctx.report;
    const SceneScale scale = traceScale();
    const std::vector<std::string> &scenes = syntheticSceneNames();
    Tracer off(false);

    std::vector<double> setup, warm, capture, rate, dataset_s, psnr, sim;
    std::vector<double> capture_traced, capture_untraced;
    IterLog all, layer_log;
    std::vector<TraceJob> layer_jobs;
    double occupied = 0.0;

    for (int rep = 0; rep < kReps; rep++) {
        const bool traced = ctx.traced && rep > 0;
        Tracer &tr = traced ? ctx.tracer : off;
        Span rep_span(tr, "accel_trace.rep");

        std::vector<Dataset> data(scenes.size());
        std::vector<std::unique_ptr<Trainer>> trainers;
        double t0 = nowSeconds();
        {
            Span span(tr, "scene.make_dataset", rep_span.id());
            for (size_t i = 0; i < scenes.size(); i++)
                data[i] = buildDataset(scenes[i], scale);
        }
        dataset_s.push_back(nowSeconds() - t0);
        for (size_t i = 0; i < scenes.size(); i++)
            trainers.push_back(buildTrainer(data[i], scale, ctx.seed + i,
                                            traced));
        setup.push_back(nowSeconds() - t0);

        IterLog log;
        double t1 = nowSeconds();
        {
            Span span(tr, "trainer.train", rep_span.id());
            for (auto &trainer : trainers)
                for (int k = 0; k < kWarmup; k++)
                    timedIteration(*trainer, log, tr, span.id());
        }
        warm.push_back(nowSeconds() - t1);

        std::vector<TraceJob> jobs;
        double t2 = nowSeconds();
        for (auto &trainer : trainers)
            for (int k = 0; k < kTraced; k++)
                jobs.push_back(
                    captureTrace(*trainer, scale, tr, rep_span.id(), &log));
        const double cap = nowSeconds() - t2;
        capture.push_back(cap);
        (traced ? capture_traced : capture_untraced).push_back(cap);
        rate.push_back(static_cast<double>(jobs.size()) / cap);
        sim.push_back(meanSimSeconds(jobs));

        double psnr_sum = 0.0, occ_sum = 0.0;
        {
            Span span(tr, "trainer.eval_psnr", rep_span.id());
            for (auto &trainer : trainers) {
                psnr_sum += trainer->evalPsnr();
                occ_sum += trainer->occupancyGrid()->occupiedFraction();
            }
        }
        psnr.push_back(psnr_sum / static_cast<double>(trainers.size()));
        occupied = occ_sum / static_cast<double>(trainers.size());

        mergeInto(all, log);
        if (traced || !ctx.traced) {
            mergeInto(layer_log, log);
            layer_jobs.insert(layer_jobs.end(), jobs.begin(), jobs.end());
        }
    }

    bool same = true;
    for (int rep = 1; rep < kReps; rep++)
        same = same && sameBits(psnr[rep], psnr[0]) &&
               sameBits(sim[rep], sim[0]);
    r.check(same, ctx.traced
                      ? "psnr_db and sim_train_s bit-identical between "
                        "the untraced and the traced repetitions"
                      : "psnr_db and sim_train_s bit-identical across "
                        "repetitions");
    r.attempted = all.stepMs.size();
    r.failed = all.nonFinite;
    r.outcome("ok", r.attempted - r.failed);
    r.outcome("non_finite_loss", r.failed);
    r.check(all.nonFinite == 0, "every training loss finite");

    r.e2e("setup_s", median(setup), setup.size());
    r.e2e("peak_rss_mb", peakRssMiB());
    r.e2e("train_s", median(warm), warm.size());
    r.e2e("psnr_db", psnr[0]);
    r.e2e("throughput_rps", median(rate), rate.size());
    r.e2ePct("latency_p50_ms", percentile(all.stepMs, 0.5));
    r.e2ePct("latency_p99_ms", percentile(all.stepMs, 0.99));
    r.e2e("sim_train_s", sim[0]);
    r.e2e("capture_s", median(capture), capture.size());

    reportTrainerLayers(r, layer_log, occupied);
    reportTraceLayers(r, layer_jobs);
    r.layer("scene.make_dataset_s", median(dataset_s), dataset_s.size());
    if (ctx.traced)
        r.layer("trace_overhead",
                median(capture_traced) / median(capture_untraced) - 1.0,
                capture.size());
}

} // namespace perfbench
