/**
 * @file
 * The crw-bench driver's shared flag set: every exhibit's flags are
 * defined in one FlagSet before parsing, so a flag no exhibit owns
 * must be rejected rather than parsed and ignored, and an exhibit's
 * defaults must not depend on which exhibit registered first. A name
 * the registry does not hold is an error, not an empty selection.
 */

#include <string>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "common/flags.h"
#include "common/logging.h"

namespace crw {
namespace bench {
namespace {

TEST(CrwBenchFlags, FlagNoExhibitOwnsIsRejected)
{
    const char *argv[] = {"crw-bench", "--windows", "3", "list"};
    EXPECT_THROW(crwBenchMain(4, const_cast<char **>(argv)), FatalError);
}

TEST(CrwBenchFlags, CacheKeepsItsOwnDefaults)
{
    FlagSet flags;
    for (const Exhibit &ex : exhibitRegistry())
        if (ex.addFlags)
            ex.addFlags(flags);
    EXPECT_FALSE(flags.getBool("gc"));
}

TEST(CrwBenchExhibits, RetiredReplayThroughputIsUnknown)
{
    EXPECT_EQ(findExhibit("replay-throughput"), nullptr);
    const char *argv[] = {"crw-bench", "replay-throughput"};
    testing::internal::CaptureStderr();
    const int rc = crwBenchMain(2, const_cast<char **>(argv));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find("unknown exhibit \"replay-throughput\""),
              std::string::npos)
        << err;
}

} // namespace
} // namespace bench
} // namespace crw
