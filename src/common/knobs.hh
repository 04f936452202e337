/**
 * @file
 * The run-time knob table: every D2M_* environment variable, declared
 * once.
 *
 * Each row names the variable, its kind, its default and a one-line
 * help text. Every reader goes through knobU64() / knobStr() /
 * knobSet(), `d2m_campaign --help` prints the same rows, and
 * knobs_test checks README.md against them.
 *
 * Reading is strict: an unsigned knob set to "10k", "-5", "" or an
 * out-of-range number is a fatal() configuration error, and so is any
 * D2M_* variable in the environment that is not a row (checked once,
 * on the first read), so a typo fails loudly instead of being ignored.
 */

#ifndef D2M_COMMON_KNOBS_HH
#define D2M_COMMON_KNOBS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace d2m
{

/** One enumerator per row of knobTable(), in table order. */
enum class Knob : std::uint8_t
{
    StoreDir,
    StatsJson,
    Jobs,
    RunTimeout,
    RunRetries,
    BuildFingerprint,
    Quiet,
    ConfigFilter,
    SuiteFilter,
    BenchFilter,
    InstsPerCore,
    Nodes,
    Warmup,
    Seed,
    Debug,
    IntervalInsts,
    BenchJsonDir,
    CampaignKillAfter,
    CampaignSigintAfter,
    CampaignFailBench,
    NUM_KNOBS
};

/** Value kind of a knob. */
enum class KnobKind : std::uint8_t
{
    U64,  //!< Strict unsigned decimal integer.
    Str,  //!< Free text; empty reads as unset.
};

/** One declared knob. */
struct KnobRow
{
    Knob id;
    const char *env;    //!< Environment variable name.
    KnobKind kind;
    std::uint64_t def;  //!< U64 value when unset (Str: unused).
    const char *help;
};

/** Every knob, in enum order. A function-local static, so static
 * initializers may read knobs. */
const std::vector<KnobRow> &knobTable();

/** The row of @p k. */
const KnobRow &knobRow(Knob k);

/** @return true when @p k's variable is present in the environment. */
bool knobSet(Knob k);

/** Unsigned knob value, or the row default when unset. A malformed
 * value is fatal. */
std::uint64_t knobU64(Knob k);

/** String knob value ("" when unset). */
std::string knobStr(Knob k);

/** fatal() naming the first D2M_* environment variable that is not a
 * row of knobTable(). Runs once on the first knob read. */
void checkKnobEnv();

} // namespace d2m

#endif // D2M_COMMON_KNOBS_HH
