/**
 * @file
 * Bench-side span tracing. Spans are recorded around calls into the
 * program's public API (never inside it), kept in memory, and written
 * once at exit as Chrome trace JSON, which Perfetto loads.
 *
 * A disabled Tracer reads no clocks and stores nothing, so the untraced
 * run measures the program alone.
 */
#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since process start. */
double nowSeconds();

/** One finished span. Ids are unique per Tracer; 0 means "none". */
struct SpanRecord
{
    const char *name = ""; //!< Static string.
    double beginS = 0.0;
    double endS = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0; //!< Request or iteration number; 0 = none.
    int track = 0;        //!< Chrome "tid": 0 main, 1+ per client.
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Reserve a span id (for spans recorded after the fact). */
    uint64_t newId();

    /** Store a finished span; no-op when disabled. */
    void record(const SpanRecord &span);

    /** Write every span as Chrome trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    mutable std::mutex mtx;
    uint64_t nextId = 1;
    std::vector<SpanRecord> spans;
};

/** RAII span around one synchronous call. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, uint64_t parent = 0,
         uint64_t request = 0, int track = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    uint64_t id() const { return rec.id; }

  private:
    Tracer &owner;
    SpanRecord rec;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
