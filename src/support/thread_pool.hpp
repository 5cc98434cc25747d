#ifndef GMT_SUPPORT_THREAD_POOL_HPP
#define GMT_SUPPORT_THREAD_POOL_HPP

/**
 * @file
 * A fixed-size worker pool for the experiment runner and gmt-fuzz:
 * jobs are submitted as plain closures, workers drain them FIFO, and
 * wait() blocks until every submitted job has finished. Exceptions
 * must be handled inside the job (the pool aborts the process
 * otherwise, the same policy as an escaped exception on any
 * std::thread).
 */

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gmt
{

/** Fixed set of worker threads executing queued jobs in FIFO order. */
class ThreadPool
{
  public:
    /** @param num_threads worker count; clamped to >= 1. */
    explicit ThreadPool(int num_threads);

    /** Joins the workers; pending jobs are still executed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Must not throw out of the closure. */
    void submit(std::function<void()> job);

    /**
     * Block until the queue is empty and no job is running. Only
     * meaningful from a non-worker thread (a worker calling this
     * would wait for itself).
     */
    void wait();

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Worker count for "use the whole machine" defaults (>= 1). */
    static int hardwareDefault();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    int in_flight_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace gmt

#endif // GMT_SUPPORT_THREAD_POOL_HPP
