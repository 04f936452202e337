#include "harness/pool.hh"

#include <cstdlib>

#include "common/knobs.hh"
#include "common/logging.hh"

namespace d2m
{

WorkStealingPool::WorkStealingPool(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    qs_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        qs_.push_back(std::make_unique<Queue>());
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stopping_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkStealingPool::submit(Job job)
{
    panic_if(!job, "submitting an empty job");
    std::size_t target;
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        panic_if(stopping_, "submit() on a stopping pool");
        target = submitNext_++ % qs_.size();
        ++queued_;
        ++unfinished_;
    }
    {
        std::lock_guard<std::mutex> lock(qs_[target]->mutex);
        qs_[target]->jobs.push_back(std::move(job));
    }
    wakeCv_.notify_one();
}

void
WorkStealingPool::wait()
{
    std::unique_lock<std::mutex> lock(sleepMutex_);
    doneCv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool
WorkStealingPool::popOwn(unsigned self, Job &out)
{
    Queue &q = *qs_[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.jobs.empty())
        return false;
    // LIFO on the own deque: the most recently pushed job is the most
    // cache-warm (matters little for sweep jobs, costs nothing).
    out = std::move(q.jobs.back());
    q.jobs.pop_back();
    return true;
}

bool
WorkStealingPool::stealFrom(unsigned self, Job &out)
{
    for (std::size_t i = 1; i < qs_.size(); ++i) {
        Queue &q = *qs_[(self + i) % qs_.size()];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.jobs.empty())
            continue;
        // FIFO when stealing: take the oldest job, which round-robin
        // submission makes the one its owner is least likely to reach
        // soon.
        out = std::move(q.jobs.front());
        q.jobs.pop_front();
        return true;
    }
    return false;
}

void
WorkStealingPool::workerLoop(unsigned self)
{
    for (;;) {
        Job job;
        if (popOwn(self, job) || stealFrom(self, job)) {
            {
                std::lock_guard<std::mutex> lock(sleepMutex_);
                --queued_;
            }
            job();
            bool done;
            {
                std::lock_guard<std::mutex> lock(sleepMutex_);
                done = --unfinished_ == 0;
            }
            if (done)
                doneCv_.notify_all();
            continue;
        }
        // Queues looked empty; re-check the job count under the lock
        // so a submit() racing this scan cannot slip past unseen
        // (queued_ is bumped before the wake notification fires).
        std::unique_lock<std::mutex> lock(sleepMutex_);
        if (queued_ > 0)
            continue;  // something arrived (or is mid-steal); rescan
        if (stopping_)
            return;
        wakeCv_.wait(lock);
    }
}

unsigned
WorkStealingPool::defaultJobs()
{
    const std::uint64_t env = knobU64(Knob::Jobs);
    if (env > 0)
        return static_cast<unsigned>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace d2m
