#include "core/admission.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mussti {

FairAdmission::FairAdmission(CompileService &service,
                             const FairAdmissionConfig &config)
    : service_(service), config_{std::max<std::uint64_t>(1, config.quantum),
                                 config.maxInFlightPerClient}
{}

FairAdmission::~FairAdmission()
{
    shutdown();
}

void
FairAdmission::submit(const std::string &client, CompileRequest request,
                      std::function<void(CompileOutcome)> done)
{
    MUSSTI_REQUIRE(done != nullptr, "admission submit without a callback");
    // Cost before the move: DRR credit is spent in gate units, so a
    // 10k-gate sweep job drains ~10k credit while an interactive job
    // costs its own size — fairness over work, not job count.
    const std::uint64_t cost =
        std::max<std::uint64_t>(1, request.circuit.size());
    Pending pending{std::move(request), std::move(done), cost};

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_) {
            auto [it, inserted] = clients_.try_emplace(client);
            if (inserted)
                ring_.push_back(client);
            it->second.queue.push_back(std::move(pending));
            ++submitted_;
            pending.done = nullptr; // moved from; mark for the path below
        }
    }
    if (pending.done) {
        pending.done(CompileOutcome::cancelled(
            "submit after admission shutdown"));
        return;
    }
    pump();
}

void
FairAdmission::shutdown()
{
    std::vector<Pending> orphaned;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        // Ring order then per-client FIFO: the cancellation order is as
        // deterministic as the dispatch order.
        for (const std::string &client : ring_) {
            ClientState &state = clients_[client];
            for (Pending &pending : state.queue)
                orphaned.push_back(std::move(pending));
            state.queue.clear();
            state.deficit = 0;
        }
        cancelledQueued_ += orphaned.size();
    }
    for (Pending &pending : orphaned)
        pending.done(CompileOutcome::cancelled(
            "admission shut down before the job was dispatched"));
    if (!orphaned.empty())
        idleCv_.notify_all();
    drain();
}

void
FairAdmission::drain()
{
    pump(); // Anything dispatchable goes out before we start waiting.
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] {
        if (activeHooks_ != 0)
            return false;
        for (const auto &entry : clients_)
            if (!entry.second.queue.empty() || entry.second.inFlight > 0)
                return false;
        return true;
    });
}

AdmissionStats
FairAdmission::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    AdmissionStats stats;
    stats.submitted = submitted_;
    stats.dispatched = dispatched_;
    stats.completed = completed_;
    stats.cancelledQueued = cancelledQueued_;
    for (const auto &entry : clients_) {
        stats.queuedJobs += entry.second.queue.size();
        stats.inFlightJobs += entry.second.inFlight;
        if (!entry.second.queue.empty() || entry.second.inFlight > 0)
            ++stats.activeClients;
    }
    return stats;
}

void
FairAdmission::pump()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (pumping_) {
        // A pump is running (possibly dispatching outside the lock);
        // ask it for another rotation rather than racing it.
        repump_ = true;
        return;
    }
    pumping_ = true;
    for (;;) {
        repump_ = false;
        std::vector<Dispatch> batch = selectLocked();
        if (batch.empty()) {
            if (repump_)
                continue; // A completion freed budget while we selected.
            break;
        }
        lock.unlock();
        for (Dispatch &item : batch)
            dispatch(std::move(item));
        lock.lock();
    }
    pumping_ = false;
}

std::vector<FairAdmission::Dispatch>
FairAdmission::selectLocked()
{
    std::vector<Dispatch> batch;
    if (ring_.empty())
        return batch;

    const auto under_budget = [this](const ClientState &state) {
        return config_.maxInFlightPerClient == 0 ||
               state.inFlight < config_.maxInFlightPerClient;
    };

    // Rotate the ring until a full pass makes no progress. Banking a
    // quantum without dispatching counts as progress: the blocked
    // front job's cost is finite, so its client unblocks after a
    // bounded number of rotations (the rotations other clients spend
    // dispatching their own credit).
    std::size_t idle_passes = 0;
    while (idle_passes < ring_.size()) {
        const std::string &client = ring_[cursor_];
        ClientState &state = clients_[client];
        bool progress = false;
        if (!state.queue.empty() && under_budget(state)) {
            state.deficit += config_.quantum;
            progress = true;
            while (!state.queue.empty() && under_budget(state) &&
                   state.queue.front().cost <= state.deficit) {
                state.deficit -= state.queue.front().cost;
                ++state.inFlight;
                ++dispatched_;
                batch.push_back(
                    Dispatch{client, std::move(state.queue.front())});
                state.queue.pop_front();
            }
        }
        if (state.queue.empty())
            state.deficit = 0; // Standard DRR: credit does not bank
                               // across idle periods.
        cursor_ = (cursor_ + 1) % ring_.size();
        idle_passes = progress ? 0 : idle_passes + 1;
    }
    return batch;
}

void
FairAdmission::dispatch(Dispatch item)
{
    std::string client = item.client;
    service_.submitWithCallback(
        std::move(item.job.request),
        [this, client = std::move(client),
         done = std::move(item.job.done)](CompileOutcome outcome) {
            // Bookkeeping first, so a client that has received the
            // result also sees it counted; then the caller (it streams
            // the result), then the re-pump the freed budget may enable.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = clients_.find(client);
                if (it != clients_.end() && it->second.inFlight > 0)
                    --it->second.inFlight;
                retireIfIdleLocked(client);
                ++completed_;
                // Hook accounting keeps drain() from returning (and the
                // owner from destroying us) while this thread is still
                // inside the callback or pump() below.
                ++activeHooks_;
            }
            done(std::move(outcome));
            pump();
            // Notify under the lock: once drain() can observe zero
            // hooks, the owner may destroy this object, so this thread
            // must be done with the condition variable by then.
            std::lock_guard<std::mutex> lock(mutex_);
            --activeHooks_;
            idleCv_.notify_all();
        });
}

void
FairAdmission::retireIfIdleLocked(const std::string &client)
{
    const auto it = clients_.find(client);
    if (it == clients_.end() || !it->second.queue.empty() ||
        it->second.inFlight > 0)
        return;
    const auto slot = std::find(ring_.begin(), ring_.end(), client);
    if (static_cast<std::size_t>(slot - ring_.begin()) < cursor_)
        --cursor_;
    ring_.erase(slot);
    if (cursor_ >= ring_.size())
        cursor_ = 0;
    clients_.erase(it);
}

} // namespace mussti
