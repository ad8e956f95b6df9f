/**
 * @file
 * Sample bookkeeping shared by every workload: honest percentiles and
 * closed-loop request accounting.
 *
 * Honest percentiles: a percentile is reported only when at least
 * `minTail` samples lie strictly above the rank it reads. With fewer,
 * the value is one or two outliers and would change from run to run,
 * so it is flagged instead of reported.
 */
#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Samples that must lie above a percentile's rank to report it. */
constexpr uint64_t minTail = 10;

/** One percentile read from a sample set. */
struct Percentile
{
    double value = 0.0;  //!< Nearest-rank value (0 when flagged).
    uint64_t n = 0;      //!< Samples in the set.
    uint64_t above = 0;  //!< Samples strictly above the rank read.
    bool supported = false; //!< above >= minTail.
};

/**
 * Nearest-rank percentile p in (0, 1) of `samples` (need not be
 * sorted). Flagged (supported == false, value 0) when fewer than
 * minTail samples lie above the rank.
 */
inline Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    const double rank = std::ceil(p * static_cast<double>(out.n));
    uint64_t idx = rank < 1.0 ? 0 : static_cast<uint64_t>(rank) - 1;
    idx = std::min<uint64_t>(idx, out.n - 1);
    out.above = out.n - 1 - idx;
    out.supported = out.above >= minTail;
    if (!out.supported)
        return out;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(idx),
                     samples.end());
    out.value = samples[idx];
    return out;
}

/** Outcome classes a closed-loop client counts. */
enum class Outcome
{
    Ok,
    Rejected,
    Deadline,
    ColdStart,
    BadRequest,
    Other,
};

/**
 * Closed-loop request accounting. Every request sent is eventually
 * recorded exactly once; only Ok requests contribute a latency sample,
 * so a failed request counts as attempted but never as a latency.
 */
struct LoopCounters
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t deadline = 0;
    uint64_t coldStart = 0;
    uint64_t badRequest = 0;
    uint64_t other = 0;
    std::vector<double> latencyMs; //!< One per Ok request.

    void onSend() { sent++; }

    void
    onDone(Outcome o, double latency_ms)
    {
        switch (o) {
          case Outcome::Ok:
            ok++;
            latencyMs.push_back(latency_ms);
            return;
          case Outcome::Rejected: rejected++; return;
          case Outcome::Deadline: deadline++; return;
          case Outcome::ColdStart: coldStart++; return;
          case Outcome::BadRequest: badRequest++; return;
          case Outcome::Other: other++; return;
        }
    }

    uint64_t
    failed() const
    {
        return rejected + deadline + coldStart + badRequest + other;
    }

    /** Sent but not yet recorded. */
    uint64_t inFlight() const { return sent - ok - failed(); }
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
