/**
 * @file
 * train_lego: the paper's headline job. Train the lego scene with the
 * shipped Instant-3D config and the occupancy grid for a fixed
 * iteration budget, every iteration counted (refresh iterations too),
 * then capture a few density-grid traces of the trained model and
 * simulate the accelerator from them.
 *
 * The job is repeated kReps times from scratch; every repetition must
 * reach bit-identical PSNR and simulated time. In a traced run the
 * first repetition runs untraced, which both checks that tracing does
 * not change results and gives the tracing overhead.
 */
#include <cstdio>

#include "scene_job.hh"
#include "workloads.hh"

namespace perfbench {

using namespace instant3d;

namespace {

constexpr int kReps = 4;
// The grid starts all-occupied and first clears cells at its 14th
// refresh (iteration 224); 600 iterations put the median iteration
// well inside the converged regime instead of on that boundary.
constexpr int kIterations = 600;
constexpr int kTraces = 12;

} // namespace

void
runTrainLego(Context &ctx)
{
    Report &r = ctx.report;
    const SceneScale scale = trainScale();
    Tracer off(false);

    std::vector<double> setup, train, capture, dataset_s, psnr, sim;
    std::vector<double> train_traced, train_untraced;
    IterLog all, layer_log;
    std::vector<TraceJob> layer_jobs;
    double occupied = 0.0;

    for (int rep = 0; rep < kReps; rep++) {
        const bool traced = ctx.traced && rep > 0;
        Tracer &tr = traced ? ctx.tracer : off;
        Span rep_span(tr, "train_lego.rep");

        double t0 = nowSeconds();
        Dataset ds;
        {
            Span span(tr, "scene.make_dataset", rep_span.id());
            ds = buildDataset("lego", scale);
        }
        dataset_s.push_back(nowSeconds() - t0);
        std::unique_ptr<Trainer> trainer;
        {
            Span span(tr, "trainer.construct", rep_span.id());
            trainer = buildTrainer(ds, scale, ctx.seed, traced);
        }
        setup.push_back(nowSeconds() - t0);

        IterLog log;
        double t1 = nowSeconds();
        {
            Span span(tr, "trainer.train", rep_span.id());
            for (int i = 0; i < kIterations; i++)
                timedIteration(*trainer, log, tr, span.id());
        }
        const double train_s = nowSeconds() - t1;
        train.push_back(train_s);
        (traced ? train_traced : train_untraced).push_back(train_s);
        {
            Span span(tr, "trainer.eval_psnr", rep_span.id());
            psnr.push_back(trainer->evalPsnr());
        }
        occupied = trainer->occupancyGrid()->occupiedFraction();

        std::vector<TraceJob> jobs;
        double t2 = nowSeconds();
        for (int k = 0; k < kTraces; k++)
            jobs.push_back(
                captureTrace(*trainer, scale, tr, rep_span.id(), nullptr));
        capture.push_back(nowSeconds() - t2);
        sim.push_back(meanSimSeconds(jobs));

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

    double train_total = 0.0;
    for (double t : train)
        train_total += t;
    r.attempted = all.stepMs.size();
    r.failed = all.nonFinite;
    r.outcome("ok", r.attempted - r.failed);
    r.outcome("non_finite_loss", r.failed);
    r.check(all.nonFinite == 0, "every training loss finite");

    r.e2e("setup_s", median(setup), setup.size());
    r.e2e("peak_rss_mb", peakRssMiB());
    r.e2e("train_s", median(train), train.size());
    r.e2e("psnr_db", psnr[0]);
    r.e2e("throughput_rps",
          static_cast<double>(all.stepMs.size()) / train_total,
          all.stepMs.size());
    r.e2ePct("latency_p50_ms", percentile(all.stepMs, 0.5));
    r.e2ePct("latency_p99_ms", percentile(all.stepMs, 0.99));
    r.e2e("sim_train_s", sim[0]);
    r.e2e("capture_s", median(capture), capture.size());

    reportTrainerLayers(r, layer_log, occupied);
    reportTraceLayers(r, layer_jobs);
    r.layer("scene.make_dataset_s", median(dataset_s), dataset_s.size());
    if (ctx.traced)
        r.layer("trace_overhead",
                median(train_traced) / median(train_untraced) - 1.0,
                train.size());
}

} // namespace perfbench
