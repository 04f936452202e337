/**
 * @file
 * Sweep-manifest tests (DESIGN.md §14): parse round-trip, the strict
 * rejection of unknown/duplicate/malformed input, and the env-seeding
 * precedence rule (environment beats manifest) that makes a
 * manifest-driven campaign exactly the env-var-driven one.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/manifest.hh"

namespace d2m
{
namespace
{

const char *kText =
    "# fig5 nightly\n"
    "[campaign]\n"
    "store_dir   = out/store\n"
    "timeout_sec = 120\n"
    "\n"
    "[grid]\n"
    "configs        = Base-2L,D2M-NS-R\n"
    "insts_per_core = 20000\n"
    "\n"
    "[obs]\n"
    "interval_insts = 5000\n";

TEST(Manifest, ParseRoundTrip)
{
    Manifest m = parseManifestText(kText, "test");
    ASSERT_EQ(m.entries.size(), 5u);

    EXPECT_EQ(m.entries[0].section, "campaign");
    EXPECT_EQ(m.entries[0].key, "store_dir");
    EXPECT_EQ(m.entries[0].value, "out/store");
    EXPECT_EQ(m.entries[0].env, "D2M_STORE_DIR");
    EXPECT_EQ(m.entries[0].line, 3);

    EXPECT_EQ(m.entries[1].env, "D2M_RUN_TIMEOUT");
    EXPECT_EQ(m.entries[1].value, "120");

    EXPECT_EQ(m.entries[2].env, "D2M_CONFIG_FILTER");
    EXPECT_EQ(m.entries[2].value, "Base-2L,D2M-NS-R");

    EXPECT_EQ(m.entries[3].env, "D2M_INSTS_PER_CORE");
    EXPECT_EQ(m.entries[4].env, "D2M_INTERVAL_INSTS");
    EXPECT_EQ(m.entries[4].line, 11);
}

TEST(ManifestDeathTest, UnknownObsKeyIsFatal)
{
    EXPECT_EXIT(parseManifestText("[obs]\nselfprof = 1\n", "t"),
                testing::ExitedWithCode(1), "unknown key 'selfprof'");
    EXPECT_EXIT(parseManifestText("[obs]\nlanes = 4\n", "t"),
                testing::ExitedWithCode(1), "unknown key 'lanes'");
}

TEST(ManifestDeathTest, UnknownSectionIsFatal)
{
    EXPECT_EXIT(parseManifestText("[bogus]\nx = 1\n", "t"),
                testing::ExitedWithCode(1), "unknown section");
}

TEST(ManifestDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nbogus = 1\n", "t"),
                testing::ExitedWithCode(1), "unknown key 'bogus'");
}

TEST(ManifestDeathTest, DuplicateKeyIsFatal)
{
    EXPECT_EXIT(
        parseManifestText("[grid]\nseed = 1\nseed = 2\n", "t"),
        testing::ExitedWithCode(1), "duplicate key");
}

TEST(ManifestDeathTest, EmptyValueIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nseed =\n", "t"),
                testing::ExitedWithCode(1), "empty value");
}

TEST(ManifestDeathTest, NonNumericValueIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nseed = twelve\n", "t"),
                testing::ExitedWithCode(1), "not an unsigned integer");
}

TEST(ManifestDeathTest, KeyBeforeSectionIsFatal)
{
    EXPECT_EXIT(parseManifestText("seed = 1\n", "t"),
                testing::ExitedWithCode(1), "before any .section.");
}

TEST(Manifest, ApplySeedsUnsetVariables)
{
    ::unsetenv("D2M_STORE_DIR");
    ::unsetenv("D2M_RUN_TIMEOUT");
    Manifest m = parseManifestText(
        "[campaign]\nstore_dir = /tmp/mstore\ntimeout_sec = 42\n", "t");
    EXPECT_EQ(applyManifest(m, false), 2u);
    EXPECT_STREQ(std::getenv("D2M_STORE_DIR"), "/tmp/mstore");
    EXPECT_STREQ(std::getenv("D2M_RUN_TIMEOUT"), "42");
    EXPECT_FALSE(m.entries[0].overridden);
    EXPECT_FALSE(m.entries[1].overridden);
    ::unsetenv("D2M_STORE_DIR");
    ::unsetenv("D2M_RUN_TIMEOUT");
}

TEST(Manifest, EnvironmentWinsOverManifest)
{
    // The precedence rule: an exported variable beats the manifest, so
    // ad-hoc experimentation never requires editing the file.
    ::setenv("D2M_RUN_TIMEOUT", "7", 1);
    ::unsetenv("D2M_STORE_DIR");
    Manifest m = parseManifestText(
        "[campaign]\nstore_dir = /tmp/mstore\ntimeout_sec = 42\n", "t");
    EXPECT_EQ(applyManifest(m, false), 1u)
        << "only the unset variable is applied";
    EXPECT_STREQ(std::getenv("D2M_RUN_TIMEOUT"), "7")
        << "environment value must survive";
    EXPECT_STREQ(std::getenv("D2M_STORE_DIR"), "/tmp/mstore");
    EXPECT_TRUE(m.entries[1].overridden);
    EXPECT_FALSE(m.entries[0].overridden);
    ::unsetenv("D2M_RUN_TIMEOUT");
    ::unsetenv("D2M_STORE_DIR");
}

TEST(Manifest, CommentsAndBlankLinesIgnored)
{
    Manifest m = parseManifestText(
        "# comment\n; also a comment\n\n[grid]\n# inner\nseed = 9\n",
        "t");
    ASSERT_EQ(m.entries.size(), 1u);
    EXPECT_EQ(m.entries[0].value, "9");
    EXPECT_EQ(m.entries[0].line, 6);
}

} // namespace
} // namespace d2m
