#include "common/knobs.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

extern char **environ;

namespace d2m
{

const std::vector<KnobRow> &
knobTable()
{
    using K = Knob;
    constexpr KnobKind U64 = KnobKind::U64;
    constexpr KnobKind Str = KnobKind::Str;
    static const std::vector<KnobRow> rows = [] {
        std::vector<KnobRow> r = {
            {K::StoreDir, "D2M_STORE_DIR", Str, 0,
             "durable result store directory; sweeps record every "
             "finished cell there and resume from it"},
            {K::StatsJson, "D2M_STATS_JSON", Str, 0,
             "write every run's metrics, stats tree and intervals as "
             "one JSON document"},
            {K::Jobs, "D2M_JOBS", U64, 0,
             "concurrent sweep cells (0 = hardware threads)"},
            {K::RunTimeout, "D2M_RUN_TIMEOUT", U64, 0,
             "cancel a cell after N seconds without progress and record "
             "it as timeout (0 = off)"},
            {K::RunRetries, "D2M_RUN_RETRIES", U64, 0,
             "re-run a failed or timed-out cell up to N more times "
             "with a jittered seed"},
            {K::BuildFingerprint, "D2M_BUILD_FINGERPRINT", Str, 0,
             "override the binary fingerprint in run keys (default: hash "
             "of the executable)"},
            {K::Quiet, "D2M_QUIET", U64, 0,
             "non-zero suppresses progress lines on stderr"},
            {K::ConfigFilter, "D2M_CONFIG_FILTER", Str, 0,
             "configurations to run (comma list; substring, or exact "
             "with a leading '=')"},
            {K::SuiteFilter, "D2M_SUITE_FILTER", Str, 0,
             "suites to run (same pattern syntax)"},
            {K::BenchFilter, "D2M_BENCH_FILTER", Str, 0,
             "benchmarks to run (same pattern syntax)"},
            {K::InstsPerCore, "D2M_INSTS_PER_CORE", U64, 0,
             "measured instructions per core (0 = the caller's default; "
             "benches use 100000)"},
            {K::Nodes, "D2M_NODES", U64, 0,
             "simulated core count (0 = the configuration's 4); D2M "
             "configurations support at most 8 nodes"},
            {K::Warmup, "D2M_WARMUP", U64, 0,
             "warmup instructions per core (unset = equal to the "
             "measured count)"},
            {K::Seed, "D2M_SEED", U64, 0,
             "workload seed for every cell (unset = each workload's "
             "own)"},
            {K::Debug, "D2M_DEBUG", Str, 0,
             "debug trace flags to stderr: MD, Coherence, NoC, "
             "Replacement, Fault, NSLLC, Index, Exec, All"},
            {K::IntervalInsts, "D2M_INTERVAL_INSTS", U64, 0,
             "snapshot all stats every N committed instructions into "
             "the D2M_STATS_JSON intervals (0 = off)"},
            {K::BenchJsonDir, "D2M_BENCH_JSON_DIR", Str, 0,
             "bench binaries also write their rows as "
             "<dir>/BENCH_<name>.json"},
            {K::CampaignKillAfter, "D2M_CAMPAIGN_KILL_AFTER", U64, 0,
             "test hook: d2m_campaign SIGKILLs itself when cell N "
             "starts"},
            {K::CampaignSigintAfter, "D2M_CAMPAIGN_SIGINT_AFTER", U64, 0,
             "test hook: d2m_campaign raises SIGINT when cell N starts"},
            {K::CampaignFailBench, "D2M_CAMPAIGN_FAIL_BENCH", Str, 0,
             "test hook: d2m_campaign fails every run of this "
             "benchmark"},
        };
        for (std::size_t i = 0; i < r.size(); ++i)
            panic_if(r[i].id != static_cast<Knob>(i),
                     "knob table row %zu (%s) out of enum order", i,
                     r[i].env);
        panic_if(r.size() != static_cast<std::size_t>(Knob::NUM_KNOBS),
                 "knob table has %zu rows for %zu knobs", r.size(),
                 static_cast<std::size_t>(Knob::NUM_KNOBS));
        return r;
    }();
    return rows;
}

const KnobRow &
knobRow(Knob k)
{
    return knobTable()[static_cast<std::size_t>(k)];
}

namespace
{

/** The raw variable of @p k (nullptr when unset), after the one-time
 * scan for undeclared D2M_* variables. */
const char *
knobText(Knob k)
{
    static const bool scanned = (checkKnobEnv(), true);
    (void)scanned;
    return std::getenv(knobRow(k).env);
}

/**
 * Strict unsigned parse of @p text into @p out. @return nullptr on
 * success, else why @p text is not an unsigned integer (empty,
 * negative, out of range, trailing garbage).
 */
const char *
parseKnobU64(const char *text, std::uint64_t &out)
{
    if (*text == '\0')
        return "empty value";
    // strtoull accepts a leading '-' and wraps the value; reject it.
    const char *p = text;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (*p == '-')
        return "negative values not allowed";
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE)
        return "value out of range";
    if (end == text || *end != '\0')
        return "not an unsigned integer";
    out = static_cast<std::uint64_t>(v);
    return nullptr;
}

} // namespace

bool
knobSet(Knob k)
{
    return knobText(k) != nullptr;
}

std::uint64_t
knobU64(Knob k)
{
    const KnobRow &row = knobRow(k);
    panic_if(row.kind != KnobKind::U64, "%s is not an unsigned knob",
             row.env);
    const char *text = knobText(k);
    if (!text)
        return row.def;
    std::uint64_t v = 0;
    if (const char *why = parseKnobU64(text, v))
        fatal("%s=\"%s\": %s", row.env, text, why);
    return v;
}

std::string
knobStr(Knob k)
{
    panic_if(knobRow(k).kind != KnobKind::Str, "%s is not a string knob",
             knobRow(k).env);
    const char *text = knobText(k);
    return text ? text : "";
}

void
checkKnobEnv()
{
    for (char **e = environ; e && *e; ++e) {
        if (std::strncmp(*e, "D2M_", 4) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        const std::size_t len = eq ? eq - *e : std::strlen(*e);
        bool known = false;
        for (const KnobRow &row : knobTable())
            known |= std::strlen(row.env) == len &&
                     std::strncmp(row.env, *e, len) == 0;
        fatal_if(!known,
                 "%.*s is not a D2M knob (README.md lists them all); "
                 "unset it",
                 static_cast<int>(len), *e);
    }
}

} // namespace d2m
