#include "spans.hh"

#include <chrono>
#include <cstdio>

namespace perfbench {

double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

uint64_t
Tracer::newId()
{
    if (!on)
        return 0;
    std::lock_guard<std::mutex> lock(mtx);
    return nextId++;
}

void
Tracer::record(const SpanRecord &span)
{
    if (!on)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    spans.push_back(span);
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"perfbench\"}}");
    for (const SpanRecord &s : spans) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                     s.name, s.track, s.beginS * 1e6,
                     (s.endS - s.beginS) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer &tracer, const char *name, uint64_t parent,
           uint64_t request, int track)
    : owner(tracer)
{
    if (!owner.enabled())
        return;
    rec.name = name;
    rec.id = owner.newId();
    rec.parent = parent;
    rec.request = request;
    rec.track = track;
    rec.beginS = nowSeconds();
}

Span::~Span()
{
    if (!owner.enabled())
        return;
    rec.endS = nowSeconds();
    owner.record(rec);
}

} // namespace perfbench
