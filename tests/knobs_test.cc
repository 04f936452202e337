/**
 * @file
 * Knob-table tests (common/knobs.hh): the table is well formed,
 * README.md names exactly its rows, every manifest key round-trips
 * onto its variable, malformed unsigned values and undeclared D2M_*
 * variables are fatal, and D2M_QUIET=0 means verbose.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "common/knobs.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"

namespace d2m
{
namespace
{

TEST(Knobs, TableIsWellFormed)
{
    const auto &rows = knobTable();
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(Knob::NUM_KNOBS));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const KnobRow &r = rows[i];
        EXPECT_EQ(r.id, static_cast<Knob>(i)) << r.env;
        EXPECT_EQ(std::string(r.env).rfind("D2M_", 0), 0u) << r.env;
        EXPECT_EQ(r.section == nullptr, r.key == nullptr) << r.env;
        EXPECT_NE(std::string(r.help), "") << r.env;
        for (std::size_t j = i + 1; j < rows.size(); ++j) {
            EXPECT_STRNE(r.env, rows[j].env);
            if (r.key && rows[j].key) {
                EXPECT_FALSE(std::string(r.section) == rows[j].section &&
                             std::string(r.key) == rows[j].key)
                    << "duplicate key " << r.section << "." << r.key;
            }
        }
    }
}

TEST(Knobs, ReadmeNamesExactlyTheRows)
{
    // __FILE__ is this source file's path, so README.md is one up.
    const std::string file = __FILE__;
    const std::string readme =
        file.substr(0, file.rfind('/')) + "/../README.md";
    std::ifstream in(readme);
    ASSERT_TRUE(in.good()) << readme;
    std::stringstream text;
    text << in.rdbuf();

    // "-DD2M_SANITIZE" is a CMake option, not a knob.
    std::set<std::string> named;
    const std::regex var("(-D)?(D2M_[A-Z0-9_]+)");
    const std::string doc = text.str();
    for (std::sregex_iterator it(doc.begin(), doc.end(), var), end;
         it != end; ++it) {
        if (!(*it)[1].matched)
            named.insert((*it)[2]);
    }
    std::set<std::string> rows;
    for (const KnobRow &r : knobTable())
        rows.insert(r.env);
    for (const std::string &r : rows)
        EXPECT_TRUE(named.count(r)) << r << " is not in README.md";
    for (const std::string &n : named)
        EXPECT_TRUE(rows.count(n)) << "README.md names " << n
                                   << ", which is not a knob";
}

TEST(Knobs, ManifestKeysRoundTrip)
{
    for (const KnobRow &r : knobTable()) {
        if (!r.key)
            continue;
        const bool u64 = r.kind == KnobKind::U64;
        const std::string value = u64 ? "7" : "some/value";
        Manifest m = parseManifestText(std::string("[") + r.section +
                                           "]\n" + r.key + " = " +
                                           value + "\n",
                                       "t");
        ASSERT_EQ(m.entries.size(), 1u) << r.env;
        EXPECT_EQ(m.entries[0].env, r.env);
        ::unsetenv(r.env);
        EXPECT_EQ(applyManifest(m, false), 1u) << r.env;
        EXPECT_TRUE(knobSet(r.id)) << r.env;
        if (u64)
            EXPECT_EQ(knobU64(r.id), 7u) << r.env;
        else
            EXPECT_EQ(knobStr(r.id), value) << r.env;
        ::unsetenv(r.env);
    }
}

TEST(Knobs, UnsetReadsTheDefault)
{
    ::unsetenv("D2M_PROGRESS_SEC");
    ::unsetenv("D2M_TRACE_FILE");
    EXPECT_FALSE(knobSet(Knob::ProgressSec));
    EXPECT_EQ(knobU64(Knob::ProgressSec),
              knobRow(Knob::ProgressSec).def);
    EXPECT_EQ(knobStr(Knob::TraceFile), "");
}

TEST(KnobsDeathTest, MalformedUnsignedValueIsFatal)
{
    for (const KnobRow &r : knobTable()) {
        if (r.kind != KnobKind::U64)
            continue;
        for (const char *bad :
             {"10k", "", "-5", "123456789012345678901234567"}) {
            ::setenv(r.env, bad, 1);
            EXPECT_EXIT(knobU64(r.id), testing::ExitedWithCode(1),
                        std::string(r.env) + "=")
                << r.env << "=\"" << bad << "\"";
        }
        ::unsetenv(r.env);
    }
}

TEST(KnobsDeathTest, UndeclaredVariableIsFatal)
{
    ::setenv("D2M_INSTS_PER_COR", "1000", 1);
    EXPECT_EXIT(checkKnobEnv(), testing::ExitedWithCode(1),
                "D2M_INSTS_PER_COR is not a D2M knob");
    ::unsetenv("D2M_INSTS_PER_COR");
}

/** stderr of a one-cell sweep with default SweepOptions. */
std::string
sweepStderr()
{
    WorkloadParams p;
    p.instructionsPerCore = 500;
    const std::vector<NamedWorkload> one = {{"ktest", "wl", p}};
    SweepOptions opts;
    opts.jobs = 1;
    testing::internal::CaptureStderr();
    runSweep({ConfigKind::Base2L}, one, opts);
    return testing::internal::GetCapturedStderr();
}

TEST(Knobs, QuietZeroLeavesSweepVerbose)
{
    ::setenv("D2M_QUIET", "0", 1);
    EXPECT_NE(sweepStderr().find("running"), std::string::npos);
    ::unsetenv("D2M_QUIET");

    Manifest m = parseManifestText("[campaign]\nquiet = 0\n", "t");
    applyManifest(m, false);
    EXPECT_NE(sweepStderr().find("running"), std::string::npos);

    ::setenv("D2M_QUIET", "1", 1);
    EXPECT_EQ(sweepStderr().find("running"), std::string::npos);
    ::unsetenv("D2M_QUIET");
}

} // namespace
} // namespace d2m
