/**
 * @file
 * In-memory span recorder of the benchmark's traced driver.
 *
 * A span is one call into a layer: a static name ("replay.batch"), a
 * label naming the work (behavior key, pointBatchKey, exhibit), its
 * steady-clock start and end, the thread it ran on and its parent
 * span. Spans stay in memory until writeSpans() dumps them as JSON
 * lines at exit, so recording costs one clock read per boundary and
 * one locked push_back per span.
 *
 * Parents follow the calling thread: a span opened while another is
 * open on the same thread is its child. Work a pool fans out to other
 * threads adopts the pool span as parent through AdoptParent, so
 * run.py can charge each child to the right layer while computing a
 * span's self time from same-thread children only.
 *
 * Recording is off until enableSpans(); a disabled Span is a branch.
 */

#ifndef CRW_PERFBENCH_SPANS_H_
#define CRW_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Start recording; every span carries @p run_id. */
void enableSpans(std::uint64_t run_id);

bool spansEnabled();

/** Steady-clock nanoseconds (CLOCK_MONOTONIC on Linux). */
std::int64_t monoNanos();

/** RAII span: opens on construction, records on destruction. */
class Span
{
  public:
    explicit Span(const char *name, std::string label = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint32_t id() const { return id_; }
    /** Attach an integer attribute (events replayed, bytes, hit). */
    void count(const char *key, std::uint64_t value);

  private:
    const char *name_;
    std::string label_;
    std::vector<std::pair<const char *, std::uint64_t>> counts_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::int64_t start_ = 0;
};

/**
 * Makes @p parent the calling thread's current span for this scope
 * (a pool task running on a worker thread), restoring the previous
 * one on exit.
 */
class AdoptParent
{
  public:
    explicit AdoptParent(std::uint32_t parent);
    ~AdoptParent();

    AdoptParent(const AdoptParent &) = delete;
    AdoptParent &operator=(const AdoptParent &) = delete;

  private:
    std::uint32_t saved_;
};

/** Write every recorded span to @p path as JSON lines. */
bool writeSpans(const std::string &path);

} // namespace perfbench

#endif // CRW_PERFBENCH_SPANS_H_
