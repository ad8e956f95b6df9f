/**
 * @file
 * The benchmark's result sheet: every end-to-end and per-layer metric
 * by name and unit, the correctness checks, and the request/iteration
 * accounting. Every workload reports the full metric list; a per-layer
 * metric a workload does not exercise stays 0 and is marked "n/a".
 */
#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    uint64_t n = 0;       //!< Sample count behind the value (0 = n/a).
    bool set = false;
    bool flagged = false; //!< Percentile without enough tail samples.
};

class Report
{
  public:
    Report();

    /** Set an end-to-end metric (n = samples behind it, if any). */
    void e2e(const std::string &name, double value, uint64_t n = 0);
    void e2ePct(const std::string &name, const Percentile &p);

    /** Set a per-layer metric. */
    void layer(const std::string &name, double value, uint64_t n = 0);
    void layerPct(const std::string &name, const Percentile &p);

    /** Record a correctness check; a false `ok` fails the run. */
    void check(bool ok, const std::string &what);
    bool correct() const { return checkFailures.empty(); }

    uint64_t attempted = 0; //!< Requests or iterations sent.
    uint64_t failed = 0;    //!< ... that did not complete Ok.

    /** Record how many requests/iterations ended one way ("ok", ...). */
    void outcome(const std::string &name, uint64_t n);

    /** Human-readable table on stdout (not the result line). */
    void printTable(bool traced) const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"}
     * with the end-to-end metrics (untraced) or the per-layer metrics
     * (traced). Returns false when an end-to-end metric was never set
     * or a required percentile was flagged -- a benchmark bug.
     */
    bool printResultLine(bool traced) const;

    /** Full detail (every metric, counts, checks) as JSON. */
    bool writeJson(const std::string &path, const std::string &workload,
                   uint64_t seed, bool traced) const;

  private:
    Metric &find(std::vector<Metric> &list, const std::string &name);

    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    std::vector<std::pair<std::string, uint64_t>> outcomes;
    std::vector<std::string> checks;        //!< "ok: ..." / "FAIL: ..."
    std::vector<std::string> checkFailures;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
