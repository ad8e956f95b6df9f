/**
 * @file
 * The two serving workloads, both saturated closed loops: each viewer
 * keeps exactly one request outstanding and sends its next one only
 * when the last has completed, as an AR/VR client waiting for its
 * frame does. One generator thread drives all viewers.
 *
 *  - serve_orbit: V viewers orbit two scenes, each asking for a
 *    Full-tier 64x64 frame through RenderService directly. Every
 *    camera is new, so the tile cache misses on every request and the
 *    time goes to field queries and chunk rendering.
 *  - serve_tiles: V clients ask a 2-shard ShardRouter for small ROIs
 *    (16x16 and 32x32) at mixed tiers over a small shared set of
 *    viewpoints; about one request in 256 comes from a new viewpoint.
 *    The cache answers almost everything, so the time goes to
 *    per-request overhead: router, admission, scheduler, cache lookup.
 *
 * Load is fixed: viewer counts and the request mix are constants, and
 * each request is a pure function of (seed, viewer, frame number).
 * The served scenes are fixtures: they are trained with one fixed seed
 * in every run, so the workload seed changes the request stream only.
 * (Models trained with different seeds differ by about 15% in occupied
 * volume, which moved serve_orbit throughput by 40% across seeds.)
 * Their psnr_db and sim_train_s are therefore the same for every seed.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "obs/telemetry.hh"
#include "scene_job.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"
#include "serve/shard_router.hh"
#include "workloads.hh"

namespace perfbench {

using namespace instant3d;

namespace {

constexpr int kSetups = 3;       //!< Set-ups per run (setup_s median).
constexpr int kSceneIters = 400; //!< Training budget per served scene.
constexpr int kSceneTraces = 24; //!< Traces captured per served scene.
constexpr int kImage = 64;       //!< Served frame edge in pixels.
constexpr int kOrbitViewers = 8;
constexpr int kTileClients = 16;
constexpr int kSharedViews = 8;  //!< serve_tiles shared viewpoints.
constexpr int kNovelOneIn = 256; //!< serve_tiles new-viewpoint share.
constexpr int kCheckEvery = 37;  //!< Sample every Nth Full response...
constexpr size_t kMaxChecks = 24; //!< ... up to this many.
const char *const kScenes[2] = {"lego", "materials"};
constexpr uint64_t kModelSeed = 1; //!< Training seed of the fixtures.

/** splitmix64: request parameters from (seed, viewer, frame). */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unit(uint64_t h)
{
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

CameraSpec
orbitCamera(double theta, double z, double radius)
{
    CameraSpec spec;
    spec.eye = {static_cast<float>(0.5 + radius * std::cos(theta)),
                static_cast<float>(0.5 + radius * std::sin(theta)),
                static_cast<float>(z)};
    spec.target = {0.5f, 0.5f, 0.5f};
    spec.up = {0.0f, 0.0f, 1.0f};
    spec.vfovDeg = 45.0f;
    spec.width = kImage;
    spec.height = kImage;
    return spec;
}

using MakeRequest = std::function<RenderRequest(int viewer, uint64_t k)>;
using Submit =
    std::function<std::future<RenderResponse>(const RenderRequest &)>;

/**
 * Submit warm-up requests in waves of kWarmWave and wait for each wave,
 * so warm-up never queues more tiles than the measured loop does (the
 * service's queue-depth high-water mark counts from construction).
 * Returns false if any request failed.
 */
constexpr size_t kWarmWave = 4;

bool
warmUp(const std::vector<RenderRequest> &requests, const Submit &submit)
{
    bool ok = true;
    for (size_t i = 0; i < requests.size(); i += kWarmWave) {
        std::vector<std::future<RenderResponse>> wave;
        for (size_t j = i; j < std::min(i + kWarmWave, requests.size()); j++)
            wave.push_back(submit(requests[j]));
        for (auto &f : wave)
            ok = f.get().status == RequestStatus::Ok && ok;
    }
    return ok;
}

/**
 * Dense close-up frames of every scene. The service grows each worker's
 * scratch arena on demand, doubling it, so without these the peak RSS
 * of a run depends on whether some worker happened to get an unusually
 * dense chunk. After them every arena has seen near-worst-case chunks,
 * as in a long-running server.
 */
std::vector<RenderRequest>
closeUps()
{
    std::vector<RenderRequest> out;
    for (const char *scene : kScenes)
        for (int k = 0; k < 8; k++) {
            RenderRequest req;
            req.sceneId = scene;
            req.camera = orbitCamera(0.7853981633974483 * k, 0.5, 0.55);
            out.push_back(req);
        }
    return out;
}

/** A trained, servable scene. Trainer keeps a reference to the data. */
struct Model
{
    std::string id;
    std::unique_ptr<Dataset> data;
    std::unique_ptr<Trainer> trainer;
};

/** One set-up: trained scenes plus the front end serving them. */
struct Setup
{
    std::vector<Model> models;
    std::unique_ptr<SceneRegistry> registry;
    std::unique_ptr<RenderService> service;
    std::unique_ptr<ShardRouter> router;
    double seconds = 0.0, trainS = 0.0, captureS = 0.0, datasetS = 0.0;
    double psnr = 0.0, sim = 0.0, occupied = 0.0;
    std::vector<double> addSceneMs;
    std::vector<TraceJob> jobs;
    IterLog log;
};

int
workerBudget()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, std::min(4, static_cast<int>(hw ? hw : 1)));
}

/**
 * Builds the serving front end of a Setup and registers its scenes,
 * recording spans under `parent`; returns the per-scene registration
 * times in ms.
 */
using FrontEnd =
    std::function<std::vector<double>(Setup &, Tracer &, uint64_t parent)>;

/**
 * Build datasets, train, capture and evaluate both scenes, then let
 * `front` build the serving front end and register the scenes.
 */
void
buildSetup(Setup &s, uint64_t seed, bool phase_times, Tracer &tr,
           const FrontEnd &front)
{
    Span root(tr, "setup");
    const double t0 = nowSeconds();
    const SceneScale scale = serveScale();
    double psnr_sum = 0.0, occ_sum = 0.0;
    for (const char *name : kScenes) {
        Model m;
        m.id = name;
        double a = nowSeconds();
        {
            Span span(tr, "scene.make_dataset", root.id());
            m.data = std::make_unique<Dataset>(buildDataset(name, scale));
        }
        s.datasetS += nowSeconds() - a;
        m.trainer = buildTrainer(*m.data, scale, seed, phase_times);
        a = nowSeconds();
        {
            Span span(tr, "trainer.train", root.id());
            for (int i = 0; i < kSceneIters; i++)
                timedIteration(*m.trainer, s.log, tr, span.id());
        }
        s.trainS += nowSeconds() - a;
        a = nowSeconds();
        for (int k = 0; k < kSceneTraces; k++)
            s.jobs.push_back(
                captureTrace(*m.trainer, scale, tr, root.id(), nullptr));
        s.captureS += nowSeconds() - a;
        {
            Span span(tr, "trainer.eval_psnr", root.id());
            psnr_sum += m.trainer->evalPsnr();
        }
        occ_sum += m.trainer->occupancyGrid()->occupiedFraction();
        s.models.push_back(std::move(m));
    }
    s.addSceneMs = front(s, tr, root.id());
    s.psnr = psnr_sum / 2.0;
    s.occupied = occ_sum / 2.0;
    s.sim = meanSimSeconds(s.jobs);
    s.seconds = nowSeconds() - t0;
}

/** Everything a closed loop observed. */
struct LoopStats
{
    LoopCounters counters;
    std::vector<double> queueMs, renderMs, submitUs;
    uint64_t degraded = 0;
    double seconds = 0.0;
    struct Sample
    {
        RenderRequest request;
        Image image;
    };
    std::vector<Sample> samples; //!< Full responses kept for checking.

    void
    absorb(const LoopStats &o)
    {
        auto cat = [](std::vector<double> &d, const std::vector<double> &s) {
            d.insert(d.end(), s.begin(), s.end());
        };
        LoopCounters &c = counters;
        const LoopCounters &oc = o.counters;
        c.sent += oc.sent;
        c.ok += oc.ok;
        c.rejected += oc.rejected;
        c.deadline += oc.deadline;
        c.coldStart += oc.coldStart;
        c.badRequest += oc.badRequest;
        c.other += oc.other;
        cat(c.latencyMs, oc.latencyMs);
        cat(queueMs, o.queueMs);
        cat(renderMs, o.renderMs);
        cat(submitUs, o.submitUs);
        degraded += o.degraded;
        seconds += o.seconds;
        for (const Sample &s : o.samples)
            if (samples.size() < kMaxChecks)
                samples.push_back(s);
    }
};

Outcome
outcomeOf(RequestStatus s)
{
    switch (s) {
      case RequestStatus::Ok: return Outcome::Ok;
      case RequestStatus::Rejected: return Outcome::Rejected;
      case RequestStatus::DeadlineExceeded: return Outcome::Deadline;
      case RequestStatus::ColdStart: return Outcome::ColdStart;
      case RequestStatus::BadRequest: return Outcome::BadRequest;
      default: return Outcome::Other;
    }
}

/**
 * Closed loop for `seconds`: every viewer has one request outstanding;
 * a viewer whose request completes before the end sends its next one.
 * Requests still outstanding at the end are drained and counted.
 * frame[v] is viewer v's next frame number (one viewer per entry).
 */
LoopStats
closedLoop(std::vector<uint64_t> &frame, double seconds,
           const MakeRequest &make, const Submit &submit, Tracer &tr,
           const char *submit_span)
{
    struct InFlight
    {
        int viewer;
        uint64_t id;
        double sentS;
        RenderRequest request;
        std::future<RenderResponse> future;
    };
    LoopStats st;
    const int viewers = static_cast<int>(frame.size());
    std::vector<InFlight> inflight;
    uint64_t next_id = 1, full_seen = 0;

    auto send = [&](int v) {
        InFlight f;
        f.viewer = v;
        f.id = next_id++;
        f.request = make(v, frame[static_cast<size_t>(v)]++);
        f.sentS = nowSeconds();
        {
            Span span(tr, submit_span, 0, f.id, v + 1);
            f.future = submit(f.request);
        }
        st.submitUs.push_back((nowSeconds() - f.sentS) * 1e6);
        st.counters.onSend();
        inflight.push_back(std::move(f));
    };

    const double start = nowSeconds();
    const double end = start + seconds;
    for (int v = 0; v < viewers; v++)
        send(v);
    double last_done = start;
    while (!inflight.empty()) {
        inflight.front().future.wait();
        for (size_t i = 0; i < inflight.size();) {
            InFlight &f = inflight[i];
            if (f.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                i++;
                continue;
            }
            RenderResponse resp = f.future.get();
            const double done = nowSeconds();
            last_done = done;
            tr.record(SpanRecord{"request", f.sentS, done, tr.newId(), 0,
                                 f.id, f.viewer + 1});
            const Outcome o = outcomeOf(resp.status);
            st.counters.onDone(o, resp.totalMs);
            if (o == Outcome::Ok) {
                st.queueMs.push_back(resp.queueMs);
                st.renderMs.push_back(resp.totalMs - resp.queueMs);
                if (resp.degradeLevels > 0)
                    st.degraded++;
                if (resp.servedQuality == QualityTier::Full &&
                    full_seen++ % kCheckEvery == 0 &&
                    st.samples.size() < kMaxChecks)
                    st.samples.push_back(
                        {f.request, std::move(resp.image)});
            }
            const int v = f.viewer;
            inflight.erase(inflight.begin() + static_cast<long>(i));
            if (done < end)
                send(v);
        }
    }
    st.seconds = last_done - start;
    return st;
}

/**
 * Run the measured loop as two halves: the first always untraced, the
 * second traced in a traced run (its throughput against the first half
 * gives the tracing overhead).
 */
LoopStats
measuredLoop(Context &ctx, std::vector<uint64_t> &frame,
             const MakeRequest &make, const Submit &submit,
             const char *submit_span, double *trace_overhead)
{
    Tracer off(false);
    const double half = ctx.seconds / 2.0;
    LoopStats a = closedLoop(frame, half, make, submit, off, submit_span);
    LoopStats b = closedLoop(frame, half, make, submit,
                             ctx.traced ? ctx.tracer : off, submit_span);
    const double rps_a = static_cast<double>(a.counters.ok) / a.seconds;
    const double rps_b = static_cast<double>(b.counters.ok) / b.seconds;
    *trace_overhead = rps_a / rps_b - 1.0;
    a.absorb(b);
    return a;
}

/** Full-tier bit identity against Trainer::renderImage. */
bool
samplesMatchRenderImage(const LoopStats &st, Setup &s)
{
    std::map<std::pair<std::string, uint64_t>, Image> refs;
    for (const LoopStats::Sample &smp : st.samples) {
        const RenderRequest &req = smp.request;
        const CameraSpec spec = req.camera.quantized(fullCameraLattice);
        auto key = std::make_pair(req.sceneId, spec.hashKey());
        auto it = refs.find(key);
        if (it == refs.end()) {
            Trainer *trainer = nullptr;
            for (Model &m : s.models)
                if (m.id == req.sceneId)
                    trainer = m.trainer.get();
            if (!trainer)
                return false;
            it = refs.emplace(key, trainer->renderImage(spec.makeCamera()))
                     .first;
        }
        const Image &ref = it->second;
        const TileRect roi = req.roi.w == 0
                                 ? TileRect{0, 0, spec.width, spec.height}
                                 : req.roi;
        if (smp.image.width() != roi.w || smp.image.height() != roi.h)
            return false;
        for (int y = 0; y < roi.h; y++)
            for (int x = 0; x < roi.w; x++)
                if (std::memcmp(&smp.image.at(x, y),
                                &ref.at(roi.x + x, roi.y + y),
                                sizeof(Vec3)) != 0)
                    return false;
    }
    return !st.samples.empty();
}

/** The set-up repetitions shared by both workloads; returns the last. */
std::unique_ptr<Setup>
setups(Context &ctx, const FrontEnd &front)
{
    Report &r = ctx.report;
    Tracer off(false);
    std::vector<double> setup_s, train_s, capture_s, dataset_s, add_ms;
    std::vector<double> psnr, sim;
    std::unique_ptr<Setup> s;
    IterLog layer_log;
    std::vector<TraceJob> layer_jobs;
    for (int i = 0; i < kSetups; i++) {
        s.reset(); // stop the previous front end before building anew
        const bool traced = ctx.traced && i > 0;
        s = std::make_unique<Setup>();
        buildSetup(*s, kModelSeed, traced, traced ? ctx.tracer : off,
                   front);
        setup_s.push_back(s->seconds);
        train_s.push_back(s->trainS);
        capture_s.push_back(s->captureS);
        dataset_s.push_back(s->datasetS);
        add_ms.insert(add_ms.end(), s->addSceneMs.begin(),
                      s->addSceneMs.end());
        psnr.push_back(s->psnr);
        sim.push_back(s->sim);
        if (traced || !ctx.traced) {
            mergeInto(layer_log, s->log);
            layer_jobs.insert(layer_jobs.end(), s->jobs.begin(),
                              s->jobs.end());
        }
    }
    bool same = true;
    for (int i = 1; i < kSetups; i++)
        same = same && sameBits(psnr[i], psnr[0]) && sameBits(sim[i], sim[0]);
    r.check(same, ctx.traced ? "psnr_db and sim_train_s bit-identical "
                               "between untraced and traced set-ups"
                             : "psnr_db and sim_train_s bit-identical "
                               "across set-ups");
    r.e2e("setup_s", median(setup_s), setup_s.size());
    r.e2e("train_s", median(train_s), train_s.size());
    r.e2e("capture_s", median(capture_s), capture_s.size());
    r.e2e("psnr_db", psnr[0]);
    r.e2e("sim_train_s", sim[0]);
    r.layer("scene.make_dataset_s", median(dataset_s), dataset_s.size());
    r.layer("registry.add_scene_ms", median(add_ms), add_ms.size());
    reportTrainerLayers(r, layer_log, s->occupied);
    reportTraceLayers(r, layer_jobs);
    return s;
}

/** End-to-end and shared per-layer metrics of a measured loop. */
void
reportLoop(Context &ctx, const LoopStats &st, double trace_overhead)
{
    Report &r = ctx.report;
    const LoopCounters &c = st.counters;
    r.attempted = c.sent;
    r.failed = c.failed();
    r.outcome("ok", c.ok);
    r.outcome("rejected", c.rejected);
    r.outcome("deadline", c.deadline);
    r.outcome("cold_start", c.coldStart);
    r.outcome("bad_request", c.badRequest);
    r.outcome("other", c.other);
    r.check(c.inFlight() == 0, "every request sent was answered");
    r.e2e("peak_rss_mb", peakRssMiB());
    r.e2e("throughput_rps", static_cast<double>(c.ok) / st.seconds, c.ok);
    r.e2ePct("latency_p50_ms", percentile(c.latencyMs, 0.5));
    r.e2ePct("latency_p99_ms", percentile(c.latencyMs, 0.99));
    r.layerPct("service.queue_ms.p50", percentile(st.queueMs, 0.5));
    r.layerPct("service.queue_ms.p99", percentile(st.queueMs, 0.99));
    r.layerPct("service.render_ms.p50", percentile(st.renderMs, 0.5));
    const double ok = static_cast<double>(std::max<uint64_t>(c.ok, 1));
    r.layer("service.degraded_share", static_cast<double>(st.degraded) / ok,
            c.ok);
    r.layer("service.rejected_share",
            static_cast<double>(c.rejected) /
                static_cast<double>(std::max<uint64_t>(c.sent, 1)),
            c.sent);
    if (ctx.traced)
        r.layer("trace_overhead", trace_overhead, 2);
}

Percentile
histPercentile(const obs::HistogramSnapshot &h, double p)
{
    Percentile out;
    out.n = h.count;
    if (!h.count)
        return out;
    const double rank = std::ceil(p * static_cast<double>(h.count));
    out.above = h.count - static_cast<uint64_t>(std::max(rank, 1.0));
    out.supported = out.above >= minTail;
    if (out.supported)
        out.value = h.percentile(p * 100.0);
    return out;
}

obs::HistogramSnapshot
histogram(const char *name)
{
    auto snap = obs::MetricsRegistry::global().snapshot();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? obs::HistogramSnapshot{}
                                       : it->second;
}

/** Tile-cache layer metrics from a before/after pair of stats. */
void
reportCache(Report &r, const TileCache::Stats &a, const TileCache::Stats &b,
            uint64_t ok)
{
    auto rate = [](uint64_t h, uint64_t m) {
        return h + m ? static_cast<double>(h) / static_cast<double>(h + m)
                     : 0.0;
    };
    r.layer("cache.hit_rate", rate(b.hits - a.hits, b.misses - a.misses),
            (b.hits - a.hits) + (b.misses - a.misses));
    const char *tiers[numQualityTiers] = {"cache.hit_rate.full",
                                          "cache.hit_rate.half",
                                          "cache.hit_rate.preview"};
    for (int t = 0; t < numQualityTiers; t++) {
        const uint64_t h = b.tierHits[t] - a.tierHits[t];
        const uint64_t m = b.tierMisses[t] - a.tierMisses[t];
        r.layer(tiers[t], rate(h, m), h + m);
    }
    r.layer("cache.evictions_per_request",
            static_cast<double>(b.evictions - a.evictions) /
                static_cast<double>(std::max<uint64_t>(ok, 1)),
            ok);
    const uint64_t ins = b.prefetchInsertions - a.prefetchInsertions;
    r.layer("prefetch.hit_rate",
            ins ? static_cast<double>(b.prefetchHits - a.prefetchHits) /
                      static_cast<double>(ins)
                : 0.0,
            ins);
    r.layer("prefetch.wasted",
            static_cast<double>(b.prefetchWasted - a.prefetchWasted));
}

TileCache::Stats
sumCache(const TileCache::Stats &a, const TileCache::Stats &b)
{
    TileCache::Stats s = a;
    s.hits += b.hits;
    s.misses += b.misses;
    s.evictions += b.evictions;
    for (int t = 0; t < numQualityTiers; t++) {
        s.tierHits[t] += b.tierHits[t];
        s.tierMisses[t] += b.tierMisses[t];
    }
    s.prefetchInsertions += b.prefetchInsertions;
    s.prefetchHits += b.prefetchHits;
    s.prefetchWasted += b.prefetchWasted;
    return s;
}

/** Service counters summed over one or more services. */
struct ServiceTotals
{
    uint64_t rays = 0, chunks = 0, crossChunks = 0, highwater = 0,
             prefetchRendered = 0, coldStarts = 0;
    TileCache::Stats cache;

    void
    add(const RenderService &svc)
    {
        const ServeStats s = svc.stats();
        rays += s.raysRendered;
        chunks += s.chunksRendered;
        crossChunks += s.crossRequestChunks;
        highwater = std::max<uint64_t>(highwater, s.queueDepthHighwater);
        prefetchRendered += s.prefetchTilesRendered;
        coldStarts += s.requestsColdStart;
        cache = sumCache(cache, svc.cacheStats());
    }
};

void
reportService(Report &r, const ServiceTotals &a, const ServiceTotals &b,
              const LoopStats &st)
{
    r.layer("service.queue_depth_highwater",
            static_cast<double>(b.highwater));
    r.layer("service.rays_per_s",
            static_cast<double>(b.rays - a.rays) / st.seconds);
    const uint64_t chunks = b.chunks - a.chunks;
    r.layer("service.coalesced_chunk_share",
            chunks ? static_cast<double>(b.crossChunks - a.crossChunks) /
                         static_cast<double>(chunks)
                   : 0.0,
            chunks);
    const obs::HistogramSnapshot chunk = histogram("serve.chunk_render_ms");
    r.layerPct("service.chunk_render_ms.p50", histPercentile(chunk, 0.5));
    r.layerPct("service.chunk_render_ms.p99", histPercentile(chunk, 0.99));
    r.layer("prefetch.tiles_rendered",
            static_cast<double>(b.prefetchRendered - a.prefetchRendered));
    reportCache(r, a.cache, b.cache, st.counters.ok);
}

} // namespace

void
runServeOrbit(Context &ctx)
{
    Report &r = ctx.report;
    RenderServiceConfig cfg;
    cfg.workers = workerBudget();
    cfg.tilePixels = 16;
    cfg.cacheTiles = 2048;
    cfg.prefetch = true;

    auto front = [&cfg](Setup &s, Tracer &tr, uint64_t parent) {
        std::vector<double> add_ms;
        s.registry = std::make_unique<SceneRegistry>();
        for (Model &m : s.models) {
            const double t0 = nowSeconds();
            Span span(tr, "registry.register_from_trainer", parent);
            s.registry->registerFromTrainer(m.id, *m.trainer);
            add_ms.push_back((nowSeconds() - t0) * 1e3);
        }
        Span span(tr, "service.construct", parent);
        s.service = std::make_unique<RenderService>(*s.registry, cfg);
        return add_ms;
    };
    std::unique_ptr<Setup> s = setups(ctx, front);
    RenderService &svc = *s->service;

    // Viewer v orbits scene v % 2 at a fixed height; the seed picks
    // its start angle and direction. 0.05 rad per frame moves the eye
    // far more than the 1/4096 Full lattice, so no two frames share a
    // cache key, and each viewer circles its scene several times per
    // run, so the start angle hardly changes the work.
    const uint64_t seed = ctx.seed;
    auto make = [seed](int v, uint64_t k) {
        const uint64_t h = mix(seed * 1000003ULL + static_cast<uint64_t>(v));
        const double theta0 = unit(h) * 6.283185307179586;
        const double dir = (mix(h) & 1) ? 1.0 : -1.0;
        const double z = 0.35 + 0.5 * (v / 2) / (kOrbitViewers / 2 - 1);
        RenderRequest req;
        req.sceneId = kScenes[v % 2];
        req.camera = orbitCamera(theta0 + dir * 0.05 * static_cast<double>(k),
                                 z, 1.3);
        req.quality = QualityTier::Full;
        req.viewerId = "viewer-" + std::to_string(v);
        return req;
    };
    auto submit = [&svc](const RenderRequest &req) { return svc.submit(req); };

    // Warm-up: dense frames to grow the worker arenas, then one frame
    // per viewer (first touches of every code path).
    r.check(warmUp(closeUps(), submit), "serve_orbit warm-up frames all Ok");
    Tracer off(false);
    std::vector<uint64_t> frame(kOrbitViewers, 0);
    closedLoop(frame, 0.0, make, submit, off, "service.submit");
    obs::MetricsRegistry::global().resetAll();
    ServiceTotals before;
    before.add(svc);

    double overhead = 0.0;
    LoopStats st =
        measuredLoop(ctx, frame, make, submit, "service.submit", &overhead);
    ServiceTotals after;
    after.add(svc);

    r.check(samplesMatchRenderImage(st, *s),
            "sampled serve_orbit Full frames bit-identical to "
            "Trainer::renderImage");
    reportLoop(ctx, st, overhead);
    reportService(r, before, after, st);
    r.layerPct("service.submit_us.p50", percentile(st.submitUs, 0.5));
    r.layer("registry.cold_starts",
            static_cast<double>(after.coldStarts - before.coldStarts));
}

void
runServeTiles(Context &ctx)
{
    Report &r = ctx.report;
    ShardRouterConfig cfg;
    cfg.numShards = 2;
    cfg.replication = 2;
    cfg.shard.workers = std::max(1, workerBudget() / 2);
    cfg.shard.tilePixels = 16;
    cfg.shard.cacheTiles = 4096;
    cfg.hedgeRequests = false;

    auto front = [&cfg](Setup &s, Tracer &tr, uint64_t parent) {
        std::vector<double> add_ms;
        {
            Span span(tr, "router.construct", parent);
            s.router = std::make_unique<ShardRouter>(cfg);
        }
        for (Model &m : s.models) {
            const double t0 = nowSeconds();
            Span span(tr, "router.add_scene", parent);
            s.router->addScene(m.id, *m.trainer);
            add_ms.push_back((nowSeconds() - t0) * 1e3);
        }
        return add_ms;
    };
    std::unique_ptr<Setup> s = setups(ctx, front);
    ShardRouter &router = *s->router;

    // Shared viewpoints: kSharedViews orbit positions per scene.
    auto shared = [](int view) {
        return orbitCamera(0.7853981633974483 * view,
                           0.35 + 0.5 * ((view * 3) % 8) / 7.0, 1.3);
    };
    const uint64_t seed = ctx.seed;
    auto make = [seed, &shared](int v, uint64_t k) {
        const uint64_t h = mix(mix(seed * 1000003ULL +
                                   static_cast<uint64_t>(v)) + k);
        RenderRequest req;
        req.sceneId = kScenes[h & 1];
        if ((h >> 1) % kNovelOneIn == 0)
            req.camera = orbitCamera(unit(mix(h)) * 6.283185307179586,
                                     0.35 + 0.5 * unit(mix(h + 1)), 1.3);
        else
            req.camera = shared(static_cast<int>((h >> 8) % kSharedViews));
        req.quality = static_cast<QualityTier>((h >> 16) % numQualityTiers);
        req.minQuality = req.quality;
        const int size = (h >> 20) & 1 ? 32 : 16;
        const int cells = (kImage - size) / 16 + 1;
        req.roi = TileRect{static_cast<int>((h >> 24) % cells) * 16,
                           static_cast<int>((h >> 32) % cells) * 16, size,
                           size};
        return req;
    };
    auto submit = [&router](const RenderRequest &req) {
        return router.submit(req);
    };

    // Warm-up: every shared viewpoint once per scene and tier, whole
    // frame, so the loop starts from a filled cache.
    std::vector<RenderRequest> warm = closeUps();
    for (const char *scene : kScenes)
        for (int view = 0; view < kSharedViews; view++)
            for (int t = 0; t < numQualityTiers; t++) {
                RenderRequest req;
                req.sceneId = scene;
                req.camera = shared(view);
                req.quality = static_cast<QualityTier>(t);
                req.minQuality = req.quality;
                warm.push_back(req);
            }
    r.check(warmUp(warm, submit), "serve_tiles warm-up frames all Ok");

    obs::MetricsRegistry::global().resetAll();
    auto totals = [&router]() {
        ServiceTotals t;
        for (int i = 0; i < router.numShards(); i++)
            t.add(router.shardService(i));
        return t;
    };
    const ServiceTotals before = totals();
    const FleetStats fleet_before = router.fleetStats();

    double overhead = 0.0;
    std::vector<uint64_t> frame(kTileClients, 0);
    LoopStats st =
        measuredLoop(ctx, frame, make, submit, "router.submit", &overhead);
    const ServiceTotals after = totals();
    const FleetStats fleet_after = router.fleetStats();

    r.check(samplesMatchRenderImage(st, *s),
            "sampled serve_tiles Full ROIs equal the matching crop of "
            "Trainer::renderImage");
    reportLoop(ctx, st, overhead);
    reportService(r, before, after, st);
    r.layerPct("router.submit_us.p50", percentile(st.submitUs, 0.5));
    const obs::HistogramSnapshot routed = histogram("router.total_ms");
    const obs::HistogramSnapshot served = histogram("serve.total_ms");
    r.layerPct("router.total_ms.p50", histPercentile(routed, 0.5));
    r.layerPct("router.total_ms.p99", histPercentile(routed, 0.99));
    const Percentile rp = histPercentile(routed, 0.5);
    const Percentile sp = histPercentile(served, 0.5);
    if (rp.supported && sp.supported)
        r.layer("router.overhead_ms.p50", rp.value - sp.value, rp.n);

    double max_d = 0.0, sum_d = 0.0;
    uint64_t cold = 0;
    for (size_t i = 0; i < fleet_after.shards.size(); i++) {
        const double d = static_cast<double>(
            fleet_after.shards[i].dispatched -
            fleet_before.shards[i].dispatched);
        max_d = std::max(max_d, d);
        sum_d += d;
        cold += fleet_after.shards[i].coldStarts -
                fleet_before.shards[i].coldStarts;
    }
    const double mean_d =
        sum_d / static_cast<double>(std::max<size_t>(fleet_after.shards.size(), 1));
    r.layer("router.shard_imbalance", mean_d > 0 ? max_d / mean_d : 0.0,
            fleet_after.shards.size());
    r.layer("router.retries",
            static_cast<double>(fleet_after.retries - fleet_before.retries));
    r.layer("router.failovers", static_cast<double>(fleet_after.failovers -
                                                    fleet_before.failovers));
    r.layer("router.hedges_issued",
            static_cast<double>(fleet_after.hedgesIssued -
                                fleet_before.hedgesIssued));
    r.layer("registry.cold_starts", static_cast<double>(cold));
}

} // namespace perfbench
