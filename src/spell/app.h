/**
 * @file
 * The multi-threaded spell checker (paper §5.1, Figure 10).
 *
 * Seven threads, six streams:
 *
 *   T4 (input)  --S1(M)--> T1 (delatex) --S2(N)--> T2 (spell1)
 *   T2 --S3(N)--> T3 (spell2)
 *   T2, T3 --S4(M)--> T5 (output)
 *   T6 (dict1/stop list) --S5(M)--> T2
 *   T7 (dict2/main dict) --S6(M)--> T3
 *
 * T4–T7 simulate file I/O: they copy between internal memory buffers
 * ("disk cache") and the streams, like the paper's OS-kernel threads.
 * Granularity is set by the absolute sizes of M and N; concurrency by
 * their ratio (§5.1): M = N gives high concurrency, M >> N low.
 */

#ifndef CRW_SPELL_APP_H_
#define CRW_SPELL_APP_H_

#include <memory>
#include <string>
#include <vector>

#include "rt/stream.h"
#include "spell/corpus.h"
#include "spell/words.h"

namespace crw {

/** Workload-level parameters (independent of scheme/windows). */
struct SpellConfig
{
    std::size_t m = 1; ///< capacity of S1, S4, S5, S6
    std::size_t n = 1; ///< capacity of S2, S3
    std::size_t corpusBytes = 40500; ///< the paper's draft size
    std::size_t dictBytes = 50000;   ///< per dictionary stream
    int vocabularyWords = 6500;
    std::uint64_t seed = 1993;
};

/** The six program behaviors of Table 1. */
enum class ConcurrencyLevel { High, Low };
enum class GranularityLevel { Fine, Medium, Coarse };

const char *concurrencyName(ConcurrencyLevel c);
const char *granularityName(GranularityLevel g);

/**
 * Buffer sizes for a Table 1 behavior. High concurrency: M = N in
 * {1, 4, 16} (these reproduce the paper's T6/T7 switch counts of
 * 50001 / 12501 / 3126 exactly); low concurrency: M = 1024, N as
 * above (T6/T7 -> 49 switches).
 */
SpellConfig behaviorConfig(ConcurrencyLevel c, GranularityLevel g);

/** Pre-generated corpus and dictionary texts, reusable across runs. */
struct SpellWorkload
{
    std::string corpus;
    std::string mainDictText; ///< T7's "disk cache" (newline words)
    std::string stopDictText; ///< T6's stop list of bad derivatives

    /** Deterministically build the workload for @p config. */
    static SpellWorkload make(const SpellConfig &config);
};

/** What the run produced (T5's output buffer). */
struct SpellReport
{
    std::vector<std::string> misspelled;
    std::uint64_t wordsFromDelatex = 0;
};

/**
 * Binds the workload to a Runtime: constructs the streams and spawns
 * T1..T7. After rt.run() completes, report() holds T5's output.
 */
class SpellApp
{
  public:
    SpellApp(Runtime &rt, const SpellWorkload &workload,
             const SpellConfig &config);

    SpellApp(const SpellApp &) = delete;
    SpellApp &operator=(const SpellApp &) = delete;

    const SpellReport &report() const { return report_; }

    /** ThreadId of paper-thread Tn (n in 1..7). */
    ThreadId tid(int n) const;

    static constexpr int kNumThreads = 7;

    /** Paper names, index 0 -> "T1 (delatex)". */
    static const char *threadLabel(int n);

  private:
    void spawnThreads();

    Runtime &rt_;
    const SpellWorkload &workload_;
    SpellConfig config_;

    std::unique_ptr<Stream> s1_, s2_, s3_, s4_, s5_, s6_;
    SpellReport report_;
    ThreadId tids_[kNumThreads] = {};
};

} // namespace crw

#endif // CRW_SPELL_APP_H_
