/**
 * @file
 * The crw-bench driver's shared flag set: every exhibit's flags are
 * defined in one FlagSet before parsing, so a flag no exhibit owns
 * must be rejected rather than parsed and ignored, and an exhibit's
 * defaults must not depend on which exhibit registered first.
 */

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

TEST(CrwBenchFlags, ReplayThroughputKeepsItsOwnDefaults)
{
    FlagSet flags;
    for (const Exhibit &ex : exhibitRegistry())
        if (ex.addFlags)
            ex.addFlags(flags);
    EXPECT_EQ(flags.getInt("reps"), 5);
    EXPECT_EQ(flags.getString("json"), "");
    EXPECT_EQ(flags.getString("git-sha"), "unknown");
}

} // namespace
} // namespace bench
} // namespace crw
