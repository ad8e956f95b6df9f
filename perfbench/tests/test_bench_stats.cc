/**
 * @file
 * Unit tests of the benchmark's own bookkeeping: the honest-percentile
 * rule and closed-loop sent = ok + failed accounting.
 *
 *   cmake --build .bench_build && .bench_build/perfbench_tests
 */
#include <cstdio>
#include <vector>

#include "bench_stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        failures++;
    }
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i > 0; i--) // descending: percentile must sort
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentileNeedsTenAbove()
{
    // p99 of 1..1000 reads rank 990; ten samples (991..1000) lie above.
    Percentile p = percentile(ramp(1000), 0.99);
    expect(p.supported, "p99 of 1000 samples is reported");
    expect(p.value == 990.0, "p99 of 1..1000 is 990 (nearest rank)");
    expect(p.above == 10 && p.n == 1000, "p99 of 1000: n and tail count");

    // One sample fewer leaves only nine above: flagged, not reported.
    p = percentile(ramp(999), 0.99);
    expect(!p.supported, "p99 of 999 samples is flagged");
    expect(p.value == 0.0 && p.n == 999, "flagged p99 carries no value");

    // The median needs 20 samples for ten to lie above it.
    expect(percentile(ramp(20), 0.5).supported, "p50 of 20 is reported");
    expect(percentile(ramp(20), 0.5).value == 10.0, "p50 of 1..20 is 10");
    expect(!percentile(ramp(19), 0.5).supported, "p50 of 19 is flagged");
    expect(!percentile({}, 0.5).supported, "empty set is flagged");
}

void
testClosedLoopBookkeeping()
{
    LoopCounters c;
    const Outcome outcomes[] = {Outcome::Ok,        Outcome::Rejected,
                                Outcome::Ok,        Outcome::Deadline,
                                Outcome::ColdStart, Outcome::BadRequest,
                                Outcome::Other,     Outcome::Ok};
    for (size_t i = 0; i < sizeof(outcomes) / sizeof(outcomes[0]); i++)
        c.onSend();
    expect(c.inFlight() == 8, "all sent requests in flight");
    double ms = 1.0;
    for (Outcome o : outcomes)
        c.onDone(o, ms++);
    expect(c.sent == c.ok + c.failed(), "sent == ok + failed");
    expect(c.ok == 3 && c.failed() == 5, "ok and failed counts");
    expect(c.inFlight() == 0, "nothing left in flight");
    expect(c.latencyMs.size() == c.ok,
           "only Ok requests give latency samples");
    expect(c.latencyMs[0] == 1.0 && c.latencyMs[1] == 3.0 &&
               c.latencyMs[2] == 8.0,
           "failed requests never become latency samples");
}

} // namespace

int
main()
{
    testPercentileNeedsTenAbove();
    testClosedLoopBookkeeping();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}
