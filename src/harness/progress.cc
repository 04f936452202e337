#include "harness/progress.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m
{

namespace
{

constexpr std::size_t kNoCell = ~std::size_t(0);

double
unixNow()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

CampaignProgress::Config
CampaignProgress::fromEnv(bool verbose)
{
    Config cfg;
    cfg.jsonPath = knobStr(Knob::ProgressJson);
    cfg.periodMs = knobU64(Knob::ProgressSec) * 1000;
    cfg.tty = verbose && ::isatty(2);
    return cfg;
}

std::unique_ptr<CampaignProgress>
CampaignProgress::make(Config cfg, std::vector<Cell> cells)
{
    if (cfg.jsonPath.empty() && !cfg.tty)
        return nullptr;
    return std::make_unique<CampaignProgress>(std::move(cfg),
                                              std::move(cells));
}

CampaignProgress::CampaignProgress(Config cfg, std::vector<Cell> cells)
    : cfg_(std::move(cfg)), cells_(std::move(cells)),
      states_(cells_.size()), start_(std::chrono::steady_clock::now())
{
    if (!cfg_.jsonPath.empty()) {
        // Append: a killed-and-resumed campaign keeps one continuous
        // record history in the same file.
        json_ = std::fopen(cfg_.jsonPath.c_str(), "a");
        fatal_if(!json_, "cannot open D2M_PROGRESS_JSON file \"%s\": %s",
                 cfg_.jsonPath.c_str(), std::strerror(errno));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        emitLocked(/*final=*/false, kNoCell);
    }
    thread_ = std::thread([this] { loop(); });
}

CampaignProgress::~CampaignProgress()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        emitLocked(/*final=*/true, kNoCell);
        if (ttyLineActive_)
            std::fputc('\n', stderr);
    }
    if (json_)
        std::fclose(json_);
}

void
CampaignProgress::cellFromStore(std::size_t idx, const std::string &status)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CellState &s = states_[idx];
    s.state = State::Done;
    s.status = status;
    s.fromStore = true;
}

void
CampaignProgress::cellStarted(std::size_t idx, std::uint64_t attempt,
                              const std::atomic<std::uint64_t> *insts)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CellState &s = states_[idx];
    s.state = State::Running;
    s.attempt = attempt;
    s.insts = insts;
    s.lastInsts = 0;
    s.lastSample = std::chrono::steady_clock::now();
    s.kips = 0;
    if (attempt > 0)
        ++retries_;
}

void
CampaignProgress::cellFinished(std::size_t idx, const std::string &status)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CellState &s = states_[idx];
    s.state = State::Done;
    s.status = status;
    s.insts = nullptr;
    emitLocked(/*final=*/false, idx);
}

void
CampaignProgress::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_.wait_for(lock, std::chrono::milliseconds(cfg_.periodMs),
                     [this] { return stop_; });
        if (stop_)
            break;
        bool anyRunning = false;
        for (const CellState &s : states_)
            anyRunning |= s.state == State::Running;
        if (anyRunning)
            emitLocked(/*final=*/false, kNoCell);
    }
}

void
CampaignProgress::emitLocked(bool final, std::size_t finishedIdx)
{
    const auto now = std::chrono::steady_clock::now();
    std::size_t running = 0, done = 0, ok = 0, failed = 0, timeout = 0,
                abandoned = 0, fromStore = 0, executedDone = 0;
    double kipsSum = 0;
    std::string cellsJson = "[";
    for (std::size_t i = 0; i < states_.size(); ++i) {
        CellState &s = states_[i];
        switch (s.state) {
          case State::Pending:
            break;
          case State::Running: {
            ++running;
            const std::uint64_t cur =
                s.insts ? s.insts->load(std::memory_order_relaxed) : 0;
            const double dt =
                std::chrono::duration<double>(now - s.lastSample).count();
            // Instantaneous rate over the window since the previous
            // sample; short windows (back-to-back completion records)
            // keep the prior estimate instead of a noisy spike.
            if (dt > 0.05 && cur >= s.lastInsts) {
                s.kips = static_cast<double>(cur - s.lastInsts) / dt /
                         1000.0;
                s.lastInsts = cur;
                s.lastSample = now;
            }
            kipsSum += s.kips;
            if (cellsJson.size() > 1)
                cellsJson += ",";
            cellsJson += "{\"suite\":" + json::quote(cells_[i].suite) +
                         ",\"benchmark\":" +
                         json::quote(cells_[i].benchmark) +
                         ",\"config\":" + json::quote(cells_[i].config) +
                         ",\"attempt\":" + json::number(s.attempt) +
                         ",\"insts\":" + json::number(cur) +
                         ",\"kips\":" + json::number(s.kips) + "}";
            break;
          }
          case State::Done:
            ++done;
            if (s.fromStore)
                ++fromStore;
            else
                ++executedDone;
            if (s.status == "ok")
                ++ok;
            else if (s.status == "failed")
                ++failed;
            else if (s.status == "timeout")
                ++timeout;
            else if (s.status == "abandoned")
                ++abandoned;
            break;
        }
    }
    cellsJson += "]";

    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    // Extrapolate from cells this process actually executed: resumed
    // cells are free and would make the estimate wildly optimistic.
    double eta = -1;
    if (executedDone > 0 && done < states_.size()) {
        eta = elapsed * static_cast<double>(states_.size() - done) /
              static_cast<double>(executedDone);
    } else if (done >= states_.size()) {
        eta = 0;
    }

    if (json_) {
        std::string rec = "{\"t\":" + json::number(unixNow()) +
                          ",\"elapsed_sec\":" + json::number(elapsed) +
                          ",\"total\":" +
                          json::number(std::uint64_t(states_.size())) +
                          ",\"done\":" + json::number(std::uint64_t(done)) +
                          ",\"running\":" +
                          json::number(std::uint64_t(running)) +
                          ",\"ok\":" + json::number(std::uint64_t(ok)) +
                          ",\"failed\":" +
                          json::number(std::uint64_t(failed)) +
                          ",\"timeout\":" +
                          json::number(std::uint64_t(timeout)) +
                          ",\"abandoned\":" +
                          json::number(std::uint64_t(abandoned)) +
                          ",\"from_store\":" +
                          json::number(std::uint64_t(fromStore)) +
                          ",\"retries\":" + json::number(retries_) +
                          ",\"kips\":" + json::number(kipsSum) +
                          ",\"eta_sec\":" + json::number(eta) +
                          ",\"final\":";
        rec += final ? "true" : "false";
        if (finishedIdx != kNoCell) {
            const CellState &s = states_[finishedIdx];
            rec += ",\"finished\":{\"suite\":" +
                   json::quote(cells_[finishedIdx].suite) +
                   ",\"benchmark\":" +
                   json::quote(cells_[finishedIdx].benchmark) +
                   ",\"config\":" +
                   json::quote(cells_[finishedIdx].config) +
                   ",\"status\":" + json::quote(s.status) +
                   ",\"attempts\":" + json::number(s.attempt + 1) + "}";
        }
        rec += ",\"cells\":" + cellsJson + "}";
        std::fputs(rec.c_str(), json_);
        std::fputc('\n', json_);
        std::fflush(json_);
    }

    if (cfg_.tty) {
        std::fprintf(stderr,
                     "\r[campaign] %zu/%zu  run:%zu ok:%zu fail:%zu "
                     "to:%zu  |  %.0f KIPS  |  eta %s   ",
                     done, states_.size(), running, ok,
                     failed + abandoned, timeout, kipsSum,
                     eta < 0 ? "?" : vformat("%.0fs", eta).c_str());
        ttyLineActive_ = true;
    }
}

} // namespace d2m
