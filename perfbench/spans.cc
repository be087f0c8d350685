#include "perfbench/spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

#include "obs/metrics.h"

namespace perfbench {

namespace {

struct Record
{
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t tid;
    const char *name;
    std::string label;
    std::int64_t start;
    std::int64_t end;
    std::vector<std::pair<const char *, std::uint64_t>> counts;
};

std::atomic<bool> g_enabled{false};
std::uint64_t g_runId = 0;
std::atomic<std::uint32_t> g_nextId{1};
std::atomic<std::uint32_t> g_nextTid{0};

std::mutex g_recordsMu;
std::vector<Record> g_records;

thread_local std::uint32_t t_current = 0;

std::uint32_t
threadIndex()
{
    thread_local const std::uint32_t tid =
        g_nextTid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

} // namespace

void
enableSpans(std::uint64_t run_id)
{
    g_runId = run_id;
    g_enabled.store(true, std::memory_order_release);
}

bool
spansEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::int64_t
monoNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Span::Span(const char *name, std::string label)
    : name_(name), label_(std::move(label))
{
    if (!spansEnabled())
        return;
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_current;
    t_current = id_;
    start_ = monoNanos();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    const std::int64_t end = monoNanos();
    t_current = parent_;
    std::lock_guard<std::mutex> lock(g_recordsMu);
    g_records.push_back({id_, parent_, threadIndex(), name_,
                         std::move(label_), start_, end,
                         std::move(counts_)});
}

void
Span::count(const char *key, std::uint64_t value)
{
    if (id_ != 0)
        counts_.emplace_back(key, value);
}

AdoptParent::AdoptParent(std::uint32_t parent) : saved_(t_current)
{
    if (t_current == 0)
        t_current = parent;
}

AdoptParent::~AdoptParent()
{
    t_current = saved_;
}

bool
writeSpans(const std::string &path)
{
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(g_recordsMu);
    for (const Record &r : g_records) {
        out << "{\"run\":" << g_runId << ",\"id\":" << r.id
            << ",\"parent\":" << r.parent << ",\"tid\":" << r.tid
            << ",\"name\":\"" << r.name << "\",\"label\":\""
            << crw::obs::escapeJson(r.label) << "\",\"start_ns\":"
            << r.start << ",\"end_ns\":" << r.end;
        for (const auto &[key, value] : r.counts)
            out << ",\"" << key << "\":" << value;
        out << "}\n";
    }
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
