#include "report.hh"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

struct Def
{
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json "end_to_end" (run.py checks it).
const Def endToEndDefs[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"train_s", "s"},
    {"psnr_db", "dB"},
    {"throughput_rps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"sim_train_s", "sim_s"},
    {"capture_s", "s"},
};

// Must match BENCHMARK.json "per_layer".
const Def layerDefs[] = {
    {"trainer.step_ms.p50", "ms"},
    {"trainer.refresh_step_ms.p50", "ms"},
    {"trainer.refresh_share", "ratio"},
    {"trainer.points_per_step", "count"},
    {"trainer.sparse_entries_per_step", "count"},
    {"train.phase.march_ms", "cpu_ms"},
    {"train.phase.forward_ms", "cpu_ms"},
    {"train.phase.backward_ms", "cpu_ms"},
    {"train.phase.reduce_ms", "cpu_ms"},
    {"train.phase.optimizer_ms", "cpu_ms"},
    {"train.phase.zero_grad_ms", "cpu_ms"},
    {"train.phase.occ_refresh_ms", "cpu_ms"},
    {"occupancy.occupied_fraction", "ratio"},
    {"scene.make_dataset_s", "s"},
    {"service.submit_us.p50", "us"},
    {"service.queue_depth_highwater", "tiles"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.render_ms.p50", "ms"},
    {"service.chunk_render_ms.p50", "ms"},
    {"service.chunk_render_ms.p99", "ms"},
    {"service.rays_per_s", "1/s"},
    {"service.coalesced_chunk_share", "ratio"},
    {"service.degraded_share", "ratio"},
    {"service.rejected_share", "ratio"},
    {"cache.hit_rate", "ratio"},
    {"cache.hit_rate.full", "ratio"},
    {"cache.hit_rate.half", "ratio"},
    {"cache.hit_rate.preview", "ratio"},
    {"cache.evictions_per_request", "1/req"},
    {"prefetch.tiles_rendered", "count"},
    {"prefetch.hit_rate", "ratio"},
    {"prefetch.wasted", "count"},
    {"router.submit_us.p50", "us"},
    {"router.total_ms.p50", "ms"},
    {"router.total_ms.p99", "ms"},
    {"router.overhead_ms.p50", "ms"},
    {"router.shard_imbalance", "ratio"},
    {"router.retries", "count"},
    {"router.failovers", "count"},
    {"router.hedges_issued", "count"},
    {"registry.add_scene_ms", "ms"},
    {"registry.cold_starts", "count"},
    {"trace.capture_ms", "ms"},
    {"trace.calibrate_ms", "ms"},
    {"accel.simulate_ms", "ms"},
    {"trace.reads", "count"},
    {"trace.writes", "count"},
    {"frm.util16", "ratio"},
    {"bum.merge_ratio", "ratio"},
    {"accel.grid_s", "sim_s"},
    {"accel.mlp_s", "sim_s"},
    {"accel.dram_bytes_per_iter", "bytes"},
    {"trace_overhead", "ratio"},
};

void
printMetricJson(std::FILE *f, const Metric &m)
{
    std::fprintf(f, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 m.name.c_str(), m.value, m.unit.c_str());
}

} // namespace

Report::Report()
{
    for (const Def &d : endToEndDefs)
        endToEnd.push_back(Metric{d.name, d.unit});
    for (const Def &d : layerDefs)
        layers.push_back(Metric{d.name, d.unit});
}

Metric &
Report::find(std::vector<Metric> &list, const std::string &name)
{
    for (Metric &m : list)
        if (m.name == name)
            return m;
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n",
                 name.c_str());
    std::abort();
}

void
Report::e2e(const std::string &name, double value, uint64_t n)
{
    Metric &m = find(endToEnd, name);
    m.value = value;
    m.n = n;
    m.set = true;
}

void
Report::e2ePct(const std::string &name, const Percentile &p)
{
    Metric &m = find(endToEnd, name);
    m.value = p.value;
    m.n = p.n;
    m.set = p.supported;
    m.flagged = !p.supported;
}

void
Report::layer(const std::string &name, double value, uint64_t n)
{
    Metric &m = find(layers, name);
    m.value = value;
    m.n = n;
    m.set = true;
}

void
Report::layerPct(const std::string &name, const Percentile &p)
{
    Metric &m = find(layers, name);
    m.value = p.value;
    m.n = p.n;
    m.set = p.supported;
    m.flagged = !p.supported;
}

void
Report::outcome(const std::string &name, uint64_t n)
{
    outcomes.emplace_back(name, n);
}

void
Report::check(bool ok, const std::string &what)
{
    checks.push_back((ok ? "ok: " : "FAIL: ") + what);
    if (!ok)
        checkFailures.push_back(what);
}

void
Report::printTable(bool traced) const
{
    auto row = [](const Metric &m) {
        const char *mark = m.flagged ? "  FLAGGED (too few tail samples)"
                           : m.set   ? ""
                                     : "  n/a";
        if (m.n)
            std::printf("  %-34s %16.6g %-6s n=%llu%s\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.n), mark);
        else
            std::printf("  %-34s %16.6g %-6s%s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), mark);
    };
    std::printf("end-to-end%s:\n", traced ? " (traced run)" : "");
    for (const Metric &m : endToEnd)
        row(m);
    if (traced) {
        std::printf("per-layer:\n");
        for (const Metric &m : layers)
            row(m);
    }
    std::printf("requests/iterations: attempted %llu failed %llu (",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < outcomes.size(); i++)
        std::printf("%s%s %llu", i ? ", " : "", outcomes[i].first.c_str(),
                    static_cast<unsigned long long>(outcomes[i].second));
    std::printf(")\n");
    for (const std::string &c : checks)
        std::printf("check %s\n", c.c_str());
}

bool
Report::printResultLine(bool traced) const
{
    bool complete = true;
    for (const Metric &m : endToEnd) {
        if (!m.set) {
            std::fprintf(stderr, "perfbench: end-to-end metric %s %s\n",
                         m.name.c_str(),
                         m.flagged ? "flagged" : "never measured");
            complete = false;
        }
    }
    if (!complete)
        return false;
    const std::vector<Metric> &list = traced ? layers : endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < list.size(); i++) {
        if (i)
            std::printf(", ");
        printMetricJson(stdout, list[i]);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return true;
}

bool
Report::writeJson(const std::string &path, const std::string &workload,
                  uint64_t seed, bool traced) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, "
                    "\"traced\": %s, \"correct\": %s, "
                    "\"attempted\": %llu, \"failed\": %llu,\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 traced ? "true" : "false", correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    auto list = [f](const char *key, const std::vector<Metric> &ms) {
        std::fprintf(f, "\"%s\": [\n", key);
        for (size_t i = 0; i < ms.size(); i++) {
            const Metric &m = ms[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"value\": %.17g, "
                         "\"unit\": \"%s\", \"n\": %llu, "
                         "\"measured\": %s, \"flagged\": %s}%s\n",
                         m.name.c_str(), m.value, m.unit.c_str(),
                         static_cast<unsigned long long>(m.n),
                         m.set ? "true" : "false",
                         m.flagged ? "true" : "false",
                         i + 1 < ms.size() ? "," : "");
        }
        std::fprintf(f, "],\n");
    };
    list("end_to_end", endToEnd);
    list("per_layer", layers);
    std::fprintf(f, "\"outcomes\": {");
    for (size_t i = 0; i < outcomes.size(); i++)
        std::fprintf(f, "%s\"%s\": %llu", i ? ", " : "",
                     outcomes[i].first.c_str(),
                     static_cast<unsigned long long>(outcomes[i].second));
    std::fprintf(f, "},\n");
    std::fprintf(f, "\"checks\": [");
    for (size_t i = 0; i < checks.size(); i++)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", checks[i].c_str());
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
