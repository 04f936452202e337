#include "harness/runner.hh"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unistd.h>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "harness/pool.hh"
#include "harness/results_json.hh"
#include "harness/store.hh"
#include "harness/watchdog.hh"
#include "obs/snapshot.hh"

namespace d2m
{

namespace
{

/** Per-run plumbing that the sweep drives but a single run doesn't. */
struct RunContext
{
    /** Output slot in the D2M_STATS_JSON "runs" array. */
    std::uint64_t slot = kRunSlotAppend;
    /** When non-null, messages buffer here instead of stderr so a
     * parallel job's output flushes as one contiguous block. */
    std::string *log = nullptr;
    /** When non-null, receives the verbatim stats row (for the
     * durable result store). */
    std::string *rowOut = nullptr;
    /** Watchdog liveness / cancellation wiring (campaign sweeps). */
    std::atomic<std::uint64_t> *progress = nullptr;
    std::atomic<int> *cancel = nullptr;
};

void
emit(const RunContext &ctx, const std::string &line)
{
    if (ctx.log)
        *ctx.log += line;
    else
        std::fputs(line.c_str(), stderr);
}

/** Resolved measured/warmup instruction counts for one cell. */
struct RunLength
{
    std::uint64_t measured = 0;
    std::uint64_t warmup = 0;
};

/** opts.baseParams with the D2M_NODES core-count override applied.
    Used for both system construction and store-key hashing, so runs
    at different node counts can never collide in a result store. */
SystemParams
resolveBaseParams(const SweepOptions &opts)
{
    SystemParams p = opts.baseParams;
    if (const std::uint64_t n = knobU64(Knob::Nodes))
        p.numNodes = static_cast<unsigned>(n);
    return p;
}

RunLength
resolveRunLength(const NamedWorkload &wl, const SweepOptions &opts)
{
    RunLength len;
    len.measured = opts.instsPerCore;
    if (len.measured == 0)
        len.measured = instsPerCoreOverride();
    if (len.measured == 0)
        len.measured = wl.params.instructionsPerCore;
    len.warmup = opts.warmupInstsPerCore;
    if (len.warmup == ~std::uint64_t(0)) {
        len.warmup = knobSet(Knob::Warmup) ? knobU64(Knob::Warmup)
                                           : len.measured;
    }
    return len;
}

Metrics
runOneImpl(ConfigKind kind, const NamedWorkload &wl,
           const SweepOptions &opts, const RunContext &ctx)
{
    CellSetup cell = setUpCell(kind, wl, opts);
    MemorySystem &system = *cell.system;
    RunOptions &ropts = cell.runOptions;
    ropts.progress = ctx.progress;
    ropts.cancel = ctx.cancel;
    // Per-run interval stats (D2M_INTERVAL_INSTS): the snapshotter
    // attaches to this system's stats tree and rides through
    // RunOptions, so concurrent runs never share one.
    auto snapshotter = obs::StatSnapshotter::fromEnv(system);
    ropts.snapshotter = snapshotter.get();
    const RunResult run = runMulticore(system, cell.streams, ropts);
    Metrics m = collectMetrics(kind, wl.suite, wl.name, system, run);
    std::string row;
    if (ctx.rowOut || !resultsJsonPath().empty())
        row = buildRunRow(m, system, snapshotter.get());
    exportRowJson(row, ctx.slot);
    if (ctx.rowOut)
        *ctx.rowOut = std::move(row);
    if (run.valueErrors || run.invariantErrors) {
        emit(ctx, vformat(
                 "ERROR: %s/%s on %s: %llu value errors, %llu "
                 "invariant errors: %s\n",
                 wl.suite.c_str(), wl.name.c_str(), configKindName(kind),
                 static_cast<unsigned long long>(run.valueErrors),
                 static_cast<unsigned long long>(run.invariantErrors),
                 run.firstError.c_str()));
    }
    return m;
}

/** Effective job count for a sweep of @p total runs (0 = auto:
 * D2M_JOBS if set, else the hardware thread count). */
unsigned
resolveJobs(const SweepOptions &opts, std::size_t total)
{
    unsigned jobs = opts.jobs ? opts.jobs : WorkStealingPool::defaultJobs();
    if (total < jobs)
        jobs = total ? static_cast<unsigned>(total) : 1;
    return jobs;
}

/**
 * Per-attempt seed jitter (splitmix64 finalizer): attempt 0 runs the
 * configured seed untouched; retries get a deterministic function of
 * (seed, attempt) so a retried campaign is still reproducible.
 */
std::uint64_t
jitteredSeed(std::uint64_t seed, std::uint64_t attempt)
{
    if (attempt == 0)
        return seed;
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * attempt;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * SIGINT/SIGTERM during a sweep: first signal requests a graceful
 * drain (in-flight runs are cancelled and recorded as abandoned,
 * everything durable is already on disk); a second signal force-quits.
 */
void
drainSignalHandler(int sig)
{
    if (noteDrainSignal() == 1) {
        static const char msg[] =
            "\nd2m: drain requested -- stopping runs, keeping partial "
            "results (signal again to force quit)\n";
        [[maybe_unused]] auto r = ::write(2, msg, sizeof(msg) - 1);
    } else {
        ::_exit(128 + sig);
    }
}

/** Install the drain handler for the duration of a sweep. */
class DrainScope
{
  public:
    DrainScope()
    {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = &drainSignalHandler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &prevInt_);
        ::sigaction(SIGTERM, &sa, &prevTerm_);
    }

    ~DrainScope()
    {
        ::sigaction(SIGINT, &prevInt_, nullptr);
        ::sigaction(SIGTERM, &prevTerm_, nullptr);
    }

  private:
    struct sigaction prevInt_{}, prevTerm_{};
};

std::mutex &
outcomeMutex()
{
    static std::mutex m;
    return m;
}

SweepOutcome &
lastOutcomeRef()
{
    static SweepOutcome o;
    return o;
}

SweepOutcome &
processOutcomeRef()
{
    static SweepOutcome o;
    return o;
}

} // namespace

const SweepOutcome &
lastSweepOutcome()
{
    return lastOutcomeRef();
}

const SweepOutcome &
processSweepOutcome()
{
    return processOutcomeRef();
}

int
campaignExitCode(const SweepOutcome &outcome)
{
    if (outcome.interrupted || outcome.abandoned)
        return kCampaignExitPartial;
    if (outcome.failed || outcome.timeout)
        return kCampaignExitFailed;
    return kCampaignExitClean;
}

int
campaignExitCode()
{
    std::lock_guard<std::mutex> lock(outcomeMutex());
    return campaignExitCode(processOutcomeRef());
}

CellSetup
setUpCell(ConfigKind kind, const NamedWorkload &wl,
          const SweepOptions &opts)
{
    CellSetup cell;
    cell.system = makeSystem(kind, resolveBaseParams(opts));
    const RunLength len = resolveRunLength(wl, opts);
    cell.streams = makeStreams(wl, cell.system->params().numNodes,
                               cell.system->params().lineSize,
                               len.measured + len.warmup);
    cell.runOptions = opts.runOptions;
    cell.runOptions.warmupInstsPerCore = len.warmup;
    return cell;
}

Metrics
runOne(ConfigKind kind, const NamedWorkload &wl, const SweepOptions &opts)
{
    return runOneImpl(kind, wl, opts, RunContext{});
}

std::vector<Metrics>
runSweep(const std::vector<ConfigKind> &configs,
         const std::vector<NamedWorkload> &workloads,
         const SweepOptions &opts)
{
    struct JobSpec
    {
        ConfigKind kind;
        const NamedWorkload *wl;
    };
    std::vector<JobSpec> specs;
    specs.reserve(configs.size() * workloads.size());
    // Workload-major order, matching the historical serial loop: this
    // order defines the output slots, so the rows (and the
    // D2M_STATS_JSON document) come out identical however the jobs
    // are scheduled.
    for (const auto &wl : workloads)
        for (ConfigKind kind : configs)
            specs.push_back({kind, &wl});

    std::vector<Metrics> rows(specs.size());
    if (specs.empty())
        return rows;
    const std::uint64_t baseSlot = reserveRunSlots(specs.size());

    // Campaign knobs (DESIGN.md §13). The struct sentinels defer to
    // env so existing callers pick the behavior up without code
    // changes.
    const std::uint64_t timeoutMs =
        opts.runTimeoutMs != ~std::uint64_t(0)
            ? opts.runTimeoutMs
            : knobU64(Knob::RunTimeout) * 1000;
    const std::uint64_t retries =
        opts.runRetries != ~std::uint64_t(0) ? opts.runRetries
                                             : knobU64(Knob::RunRetries);
    auto store = ResultStore::fromEnv();

    SweepOutcome outcome;
    outcome.total = specs.size();

    // Content-hash keys (only needed when a store is attached).
    std::vector<RunKey> keys(store ? specs.size() : 0);
    std::vector<std::size_t> pending;
    pending.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (store) {
            const RunLength len = resolveRunLength(*specs[i].wl, opts);
            keys[i] = makeRunKey(specs[i].kind, *specs[i].wl, len.warmup,
                                 len.measured, resolveBaseParams(opts));
            StoredRun prev;
            // A row that does not parse re-runs its cell.
            if (store->lookup(keys[i], &prev) &&
                metricsFromRow(prev.row, &rows[i])) {
                exportRowJson(prev.row, baseSlot + i);
                ++outcome.fromStore;
                switch (prev.status) {
                  case RunStatus::Ok: ++outcome.ok; break;
                  case RunStatus::Failed: ++outcome.failed; break;
                  case RunStatus::Timeout: ++outcome.timeout; break;
                }
                if (opts.verbose) {
                    std::fprintf(stderr,
                                 "  resumed %-10s %-14s on %s from store "
                                 "(%s)\n",
                                 specs[i].wl->suite.c_str(),
                                 specs[i].wl->name.c_str(),
                                 configKindName(specs[i].kind),
                                 runStatusName(prev.status));
                }
                continue;
            }
        }
        pending.push_back(i);
    }

    // Atomic tallies: parallel cells bump these from pool threads.
    std::atomic<std::size_t> nExecuted{0}, nOk{0}, nFailed{0},
        nTimeout{0}, nAbandoned{0};

    DrainScope drainScope;
    RunWatchdog watchdog(timeoutMs);
    std::vector<std::unique_ptr<WatchdogClient>> clients;
    clients.reserve(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i)
        clients.push_back(std::make_unique<WatchdogClient>());

    auto executeCell = [&](std::size_t pi, bool parallel) {
        const std::size_t i = pending[pi];
        const JobSpec &spec = specs[i];
        RunContext ctx;
        ctx.slot = baseSlot + i;
        std::string log;
        if (parallel) {
            ctx.log = &log;
            // Progress / warning lines from this pool
            // thread carry the cell's job tag so interleaved output
            // stays attributable.
            setThreadLogPrefix("[job" + std::to_string(i) + "] ");
        }
        WatchdogClient *client = clients[pi].get();
        ctx.progress = &client->progress;
        ctx.cancel = &client->cancel;
        std::string row;
        if (store)
            ctx.rowOut = &row;

        Metrics m;
        std::string status;
        std::string error;
        std::uint64_t attempts = 0;
        std::uint64_t seedUsed = spec.wl->params.seed;
        bool done = false;
        bool abandoned = false;

        for (std::uint64_t attempt = 0; attempt <= retries; ++attempt) {
            if (drainRequested()) {
                abandoned = true;
                break;
            }
            NamedWorkload wl = *spec.wl;
            wl.params.seed = jitteredSeed(spec.wl->params.seed, attempt);
            seedUsed = wl.params.seed;
            ++attempts;
            client->rearm();
            watchdog.attach(client);
            if (opts.verbose) {
                emit(ctx, vformat("  running %-10s %-14s on %s...\n",
                                  wl.suite.c_str(), wl.name.c_str(),
                                  configKindName(spec.kind)));
            }
            try {
                // Everything inside this scope that would normally
                // abort the process (fatal/panic/invariant failures)
                // is converted into RunAbortError and lands this cell
                // in the FAILED bucket instead.
                ScopedAbortCapture capture;
                if (opts.preRunHook)
                    opts.preRunHook(wl, static_cast<unsigned>(attempt));
                m = runOneImpl(spec.kind, wl, opts, ctx);
                watchdog.detach(client);
                done = true;
                break;
            } catch (const RunAbortError &e) {
                watchdog.detach(client);
                const int why =
                    client->cancel.load(std::memory_order_relaxed);
                if (why == kCancelDrain || drainRequested()) {
                    abandoned = true;
                    break;
                }
                if (why == kCancelTimeout) {
                    status = "timeout";
                    error = vformat("exceeded D2M_RUN_TIMEOUT (%llu ms) "
                                    "without progress",
                                    static_cast<unsigned long long>(
                                        timeoutMs));
                } else {
                    status = "failed";
                    error = e.what();
                }
            } catch (const std::exception &e) {
                watchdog.detach(client);
                status = "failed";
                error = e.what();
            }
            if (opts.verbose && attempt < retries) {
                emit(ctx, vformat(
                         "  retrying %s/%s on %s (attempt %llu/%llu): "
                         "%s\n",
                         spec.wl->suite.c_str(), spec.wl->name.c_str(),
                         configKindName(spec.kind),
                         static_cast<unsigned long long>(attempt + 2),
                         static_cast<unsigned long long>(retries + 1),
                         error.c_str()));
            }
        }

        nExecuted.fetch_add(attempts > 0 ? 1 : 0,
                            std::memory_order_relaxed);
        if (done) {
            m.attempts = attempts;
            if (opts.verbose) {
                emit(ctx, vformat("    %.0f KIPS (warmup %.1fs, measure "
                                  "%.1fs)\n",
                                  m.simKips, m.warmupWallSec,
                                  m.measureWallSec));
            }
            nOk.fetch_add(1, std::memory_order_relaxed);
            if (store)
                store->put({keys[i], RunStatus::Ok, seedUsed, attempts, "",
                            row});
        } else if (abandoned) {
            // Not stored and not exported: a resumed campaign must
            // re-execute this cell.
            m = Metrics{};
            m.config = configKindName(spec.kind);
            m.suite = spec.wl->suite;
            m.benchmark = spec.wl->name;
            m.status = "abandoned";
            m.attempts = attempts ? attempts : 1;
            nAbandoned.fetch_add(1, std::memory_order_relaxed);
        } else {
            m = Metrics{};
            m.config = configKindName(spec.kind);
            m.suite = spec.wl->suite;
            m.benchmark = spec.wl->name;
            m.status = status;
            m.attempts = attempts;
            m.errorMessage = error;
            row = buildFailureRow(m);
            exportRowJson(row, baseSlot + i);
            if (store) {
                store->put({keys[i],
                            status == "timeout" ? RunStatus::Timeout
                                                : RunStatus::Failed,
                            seedUsed, attempts, error, row});
            }
            (status == "timeout" ? nTimeout : nFailed)
                .fetch_add(1, std::memory_order_relaxed);
            emit(ctx, vformat("ERROR: %s/%s on %s %s after %llu "
                              "attempt(s): %s\n",
                              spec.wl->suite.c_str(),
                              spec.wl->name.c_str(),
                              configKindName(spec.kind),
                              status == "timeout" ? "TIMED OUT"
                                                  : "FAILED",
                              static_cast<unsigned long long>(attempts),
                              error.c_str()));
        }
        rows[i] = std::move(m);

        // One write call per job: POSIX stderr is unbuffered, so
        // the block lands contiguously even across processes.
        if (!log.empty())
            std::fputs(log.c_str(), stderr);
        if (parallel)
            setThreadLogPrefix("");  // pool threads are reused
    };

    const unsigned jobs = resolveJobs(opts, pending.size());
    if (jobs <= 1 || pending.empty()) {
        for (std::size_t pi = 0; pi < pending.size(); ++pi)
            executeCell(pi, /*parallel=*/false);
    } else {
        WorkStealingPool pool(jobs);
        for (std::size_t pi = 0; pi < pending.size(); ++pi)
            pool.submit([&, pi] { executeCell(pi, /*parallel=*/true); });
        pool.wait();
    }

    outcome.executed = nExecuted.load();
    outcome.ok += nOk.load();
    outcome.failed += nFailed.load();
    outcome.timeout += nTimeout.load();
    outcome.abandoned = nAbandoned.load();
    outcome.interrupted = drainRequested();

    {
        std::lock_guard<std::mutex> lock(outcomeMutex());
        lastOutcomeRef() = outcome;
        SweepOutcome &acc = processOutcomeRef();
        acc.total += outcome.total;
        acc.executed += outcome.executed;
        acc.fromStore += outcome.fromStore;
        acc.ok += outcome.ok;
        acc.failed += outcome.failed;
        acc.timeout += outcome.timeout;
        acc.abandoned += outcome.abandoned;
        acc.interrupted = acc.interrupted || outcome.interrupted;
    }
    return rows;
}

bool
matchesFilter(const std::string &value, const std::string &spec)
{
    if (spec.empty())
        return true;
    bool sawPattern = false;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;  // tolerate "a,,b" and trailing commas
        sawPattern = true;
        if (tok[0] == '=') {
            if (value == tok.substr(1))
                return true;
        } else if (value.find(tok) != std::string::npos) {
            return true;
        }
    }
    // A spec of only separators ("," or ",,") constrains nothing.
    return !sawPattern;
}

std::vector<NamedWorkload>
filteredWorkloads(std::vector<NamedWorkload> workloads)
{
    const std::string suite = knobStr(Knob::SuiteFilter);
    const std::string bench = knobStr(Knob::BenchFilter);
    std::erase_if(workloads, [&](const NamedWorkload &wl) {
        return !matchesFilter(wl.suite, suite) ||
               !matchesFilter(wl.name, bench);
    });
    // Campaign-wide seed override: one knob repoints every workload's
    // stream generator (the per-attempt retry jitter still applies on
    // top of it).
    if (knobSet(Knob::Seed)) {
        const std::uint64_t seed = knobU64(Knob::Seed);
        for (auto &wl : workloads)
            wl.params.seed = seed;
    }
    return workloads;
}

std::vector<ConfigKind>
filteredConfigs(std::vector<ConfigKind> configs)
{
    const std::string spec = knobStr(Knob::ConfigFilter);
    std::erase_if(configs, [&](ConfigKind kind) {
        return !matchesFilter(configKindName(kind), spec);
    });
    return configs;
}

} // namespace d2m
