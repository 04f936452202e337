#include "harness/store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "harness/results_json.hh"
#include "obs/json.hh"

namespace d2m
{

namespace
{

/** FNV-1a 64-bit over the canonical run description. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

class KeyHasher
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= kFnvPrime;
        }
    }

    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        sep();
    }

    void
    u64(std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        bytes(buf, std::strlen(buf));
        sep();
    }

    void
    f64(double v)
    {
        // %.17g round-trips doubles exactly, so two params hash equal
        // iff they are bit-for-bit the same value.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        bytes(buf, std::strlen(buf));
        sep();
    }

    void b(bool v) { u64(v ? 1 : 0); }

    std::uint64_t value() const { return hash_; }

  private:
    void
    sep()
    {
        const char c = '|';
        bytes(&c, 1);
    }

    std::uint64_t hash_ = kFnvOffset;
};

std::uint64_t
parseHex64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 16);
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** fsync an open FILE* (flush stdio first). @return false on error. */
bool
syncFile(std::FILE *f)
{
    if (std::fflush(f) != 0)
        return false;
    return ::fsync(::fileno(f)) == 0;
}

void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;  // best effort; data fsync already happened
    ::fsync(fd);
    ::close(fd);
}

} // namespace

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::Timeout: return "timeout";
    }
    return "unknown";
}

std::string
RunKey::hex() const
{
    return hex64(hash);
}

std::string
binaryFingerprint()
{
    if (std::string fp = knobStr(Knob::BuildFingerprint); !fp.empty())
        return fp;
    // Hash of the running executable: any rebuild that changes the
    // linked code changes every run key. Read once per process.
    static const std::string exeHash = []() -> std::string {
        const char *fallback = __DATE__ " " __TIME__;
        std::FILE *f = std::fopen("/proc/self/exe", "rb");
        if (!f)
            return fallback;
        KeyHasher h;
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            h.bytes(buf, n);
        const bool ok = !std::ferror(f);
        std::fclose(f);
        return ok ? "exe-" + hex64(h.value()) : fallback;
    }();
    return exeHash;
}

RunKey
makeRunKey(ConfigKind kind, const NamedWorkload &wl,
           std::uint64_t warmupInsts, std::uint64_t measuredInsts,
           const SystemParams &sp)
{
    KeyHasher h;
    h.str("d2m-run-key-v1");
    h.str(configKindName(kind));
    h.str(wl.suite);
    h.str(wl.name);
    h.u64(warmupInsts);
    h.u64(measuredInsts);

    const WorkloadParams &w = wl.params;
    h.u64(w.instructionsPerCore);
    h.u64(w.codeFootprint);
    h.f64(w.branchiness);
    h.f64(w.hotCodeFraction);
    h.f64(w.warmCodeFraction);
    h.f64(w.avgRunLength);
    h.f64(w.memOpsPerInst);
    h.f64(w.storeFraction);
    h.f64(w.stackFraction);
    h.f64(w.sharedFraction);
    h.f64(w.streamFraction);
    h.f64(w.hotDataFraction);
    h.f64(w.warmDataFraction);
    h.f64(w.hotSharedFraction);
    h.f64(w.sharedStoreFraction);
    h.u64(w.sharedChunkRefs);
    h.u64(w.privateFootprint);
    h.u64(w.sharedFootprint);
    h.b(w.stridedPattern);
    h.u64(w.strideBytes);
    h.b(w.disjointAsids);
    h.b(w.sharedCode);
    h.u64(w.seed);

    h.u64(sp.numNodes);
    h.u64(sp.lineSize);
    h.u64(sp.regionLines);
    h.u64(sp.pageShift);
    for (const CacheParams *c : {&sp.l1i, &sp.l1d, &sp.l2, &sp.llc}) {
        h.u64(c->sizeBytes);
        h.u64(c->assoc);
    }
    h.u64(sp.tlbEntries);
    h.u64(sp.tlb2Entries);
    h.u64(sp.md1Entries);
    h.u64(sp.md1Assoc);
    h.u64(sp.md2Entries);
    h.u64(sp.md2Assoc);
    h.u64(sp.md3Entries);
    h.u64(sp.md3Assoc);
    h.u64(sp.md3LockBits);
    h.b(sp.nearSideLlc);
    h.b(sp.replication);
    h.b(sp.dynamicIndexing);
    h.b(sp.md2Pruning);
    h.b(sp.llcBypass);
    h.u64(sp.bypassMinFills);
    h.f64(sp.nsRemoteAllocShare);
    h.u64(sp.nsPressurePeriod);

    const LatencyParams &l = sp.lat;
    h.u64(l.l1Hit);
    h.u64(l.l2);
    h.u64(l.llc);
    h.u64(l.dram);
    h.u64(l.nocHop);
    h.u64(l.tlb);
    h.u64(l.tlb2);
    h.u64(l.pageWalk);
    h.u64(l.md1);
    h.u64(l.md2);
    h.u64(l.md3);
    h.u64(l.directory);

    h.u64(sp.core.issueWidth);
    h.u64(sp.core.robEntries);
    h.u64(sp.core.mshrs);

    const FaultParams &f = sp.fault;
    h.b(f.enabled);
    h.f64(f.metaFlipsPerMillion);
    h.f64(f.dataFlipsPerMillion);
    h.f64(f.dataLossPerMillion);
    h.f64(f.nocDropPerMillion);
    h.f64(f.nocDelayPerMillion);
    h.b(f.parityDetection);
    h.u64(f.sweepPeriod);
    h.u64(f.seed);
    h.u64(f.nocRetryTimeout);
    h.u64(f.nocMaxRetries);
    h.u64(f.nocMaxDelayHops);

    h.u64(sp.seed);

    h.str(binaryFingerprint());
    return RunKey{h.value()};
}

std::string
ResultStore::recordToJson(const StoredRun &run)
{
    std::ostringstream os;
    os << "{" << json::quote("key") << ":" << json::quote(run.key.hex())
       << "," << json::quote("status") << ":"
       << json::quote(runStatusName(run.status)) << ","
       << json::quote("seed") << ":"
       << json::quote("0x" + hex64(run.seed)) << ","
       << json::quote("attempts") << ":" << json::number(run.attempts)
       << "," << json::quote("error") << ":" << json::quote(run.error)
       << "," << json::quote("finished_unix") << ":"
       << json::number(run.finishedUnix) << ","
       << json::quote("host_kips") << ":" << json::number(run.hostKips)
       << "," << json::quote("metrics") << ":"
       << metricsToJson(run.metrics) << "," << json::quote("row") << ":"
       << json::quote(run.row) << "}";
    return os.str();
}

bool
ResultStore::recordFromJson(const std::string &line, StoredRun *out)
{
    json::Value v;
    std::string err;
    if (!json::parse(line, v, err) || !v.isObject())
        return false;
    const json::Value &key = v["key"];
    const json::Value &status = v["status"];
    if (key.kind != json::Value::Kind::String ||
        status.kind != json::Value::Kind::String) {
        return false;
    }
    out->key.hash = parseHex64(key.asString());
    const std::string &s = status.asString();
    if (s == "ok") {
        out->status = RunStatus::Ok;
    } else if (s == "failed") {
        out->status = RunStatus::Failed;
    } else if (s == "timeout") {
        out->status = RunStatus::Timeout;
    } else {
        return false;
    }
    // Seeds are stored as hex strings: json numbers are doubles, which
    // would silently round jittered 64-bit seeds.
    out->seed = parseHex64(v["seed"].asString());
    out->attempts =
        static_cast<std::uint64_t>(v["attempts"].asNumber());
    out->error = v["error"].asString();
    // Records written before these fields existed parse as 0 (the
    // missing-key lookup yields a null value).
    out->finishedUnix = v["finished_unix"].asNumber();
    out->hostKips = v["host_kips"].asNumber();
    if (!metricsFromJson(v["metrics"], &out->metrics))
        return false;
    out->row = v["row"].asString();
    return true;
}

std::unique_ptr<ResultStore>
ResultStore::fromEnv()
{
    const std::string dir = knobStr(Knob::StoreDir);
    if (dir.empty())
        return nullptr;
    return std::make_unique<ResultStore>(dir);
}

ResultStore::ResultStore(std::string dir)
    : dir_(std::move(dir)), shardLines_(kShards)
{
    if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("cannot create result store directory '%s': %s",
              dir_.c_str(), std::strerror(errno));
    for (unsigned shard = 0; shard < kShards; ++shard) {
        std::FILE *f = std::fopen(shardPath(shard).c_str(), "r");
        if (!f)
            continue;
        std::string lineBuf;
        char chunk[4096];
        auto takeLine = [&](const std::string &line) {
            if (line.empty())
                return;
            StoredRun run;
            if (!recordFromJson(line, &run)) {
                // Torn write from a crash mid-put: drop the line (the
                // shard self-heals on the next persist).
                warn("result store: dropping corrupt line in %s",
                     shardPath(shard).c_str());
                return;
            }
            shardLines_[shard].push_back(line);
            index_[run.key.hash] = std::move(run);  // last wins
        };
        while (std::fgets(chunk, sizeof(chunk), f)) {
            lineBuf += chunk;
            if (!lineBuf.empty() && lineBuf.back() == '\n') {
                lineBuf.pop_back();
                takeLine(lineBuf);
                lineBuf.clear();
            }
        }
        // No trailing newline => the final append was torn; a partial
        // line never parses, so takeLine drops it.
        takeLine(lineBuf);
        std::fclose(f);
    }
}

std::string
ResultStore::shardPath(unsigned shard) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%02u.jsonl", shard);
    return dir_ + "/" + name;
}

bool
ResultStore::lookup(const RunKey &key, StoredRun *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key.hash);
    if (it == index_.end())
        return false;
    *out = it->second;
    return true;
}

void
ResultStore::put(const StoredRun &run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const unsigned shard = run.key.hash % kShards;
    const std::string line = recordToJson(run);
    auto &lines = shardLines_[shard];
    if (index_.count(run.key.hash)) {
        // Replace in place (retry of a previously failed cell): keep
        // one line per key so shards do not grow without bound.
        for (auto &existing : lines) {
            StoredRun prev;
            if (recordFromJson(existing, &prev) &&
                prev.key.hash == run.key.hash) {
                existing = line;
                break;
            }
        }
    } else {
        lines.push_back(line);
    }
    index_[run.key.hash] = run;
    persistShard(shard);
}

void
ResultStore::persistShard(unsigned shard)
{
    const std::string path = shardPath(shard);
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn_once("result store: cannot write '%s': %s", tmp.c_str(),
                  std::strerror(errno));
        return;
    }
    for (const auto &line : shardLines_[shard]) {
        std::fputs(line.c_str(), f);
        std::fputc('\n', f);
    }
    const bool synced = syncFile(f);
    std::fclose(f);
    if (!synced || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn_once("result store: cannot persist '%s': %s", path.c_str(),
                  std::strerror(errno));
        std::remove(tmp.c_str());
        return;
    }
    syncDir(dir_);
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

std::vector<StoredRun>
ResultStore::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<StoredRun> out;
    out.reserve(index_.size());
    for (const auto &[_, run] : index_)
        out.push_back(run);
    return out;
}

} // namespace d2m
