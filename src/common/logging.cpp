#include "common/logging.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace mussti {

namespace {

/**
 * Depth of active ScopedFatalSilence guards, process-wide. An atomic
 * (not thread_local) so a probe loop that fans its candidate checks out
 * to worker threads silences the whole burst, and so guard churn from
 * concurrent probes is race-free under TSan.
 */
std::atomic<int> fatal_silence_depth{0};

/**
 * Depth of guards that additionally asked for warn() suppression
 * (ScopedFatalSilence(true)). Kept as a separate counter behind the
 * same discipline so plain guards keep warns audible.
 */
std::atomic<int> warn_silence_depth{0};

/**
 * One mutex in front of the stderr sink: a diagnostic line is emitted
 * as a single locked write, so concurrent warn()/fatal() from the
 * compile-service workers cannot interleave mid-line. Function-local
 * static so the mutex outlives every static-destruction-order caller.
 */
std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

void
emitLine(const std::string &line)
{
    const std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << line << std::endl;
}

} // namespace

ScopedFatalSilence::ScopedFatalSilence(bool silence_warns)
    : silenceWarns_(silence_warns)
{
    fatal_silence_depth.fetch_add(1, std::memory_order_relaxed);
    if (silenceWarns_)
        warn_silence_depth.fetch_add(1, std::memory_order_relaxed);
}

ScopedFatalSilence::~ScopedFatalSilence()
{
    fatal_silence_depth.fetch_sub(1, std::memory_order_relaxed);
    if (silenceWarns_)
        warn_silence_depth.fetch_sub(1, std::memory_order_relaxed);
}

namespace detail {

void
die(ErrorCategory category, const std::string &code,
    const std::string &message)
{
    const bool is_panic = category == ErrorCategory::Internal;
    const bool silenced = !is_panic &&
        (isQuietCategory(category) ||
         fatal_silence_depth.load(std::memory_order_relaxed) > 0);
    if (!silenced)
        emitLine(std::string(is_panic ? "panic" : "fatal") + ": " + message);
    // Throwing (rather than abort/exit) keeps death-path behaviour testable
    // from gtest; the what() string carries the diagnostic and the thrown
    // type carries the structured category + code.
    if (is_panic)
        throw MusstiPanic(code, message);
    throw MusstiFault(category, code, message);
}

void
report(LogLevel level, const std::string &message)
{
    if (level == LogLevel::Warn &&
        warn_silence_depth.load(std::memory_order_relaxed) > 0)
        return;
    emitLine(std::string(level == LogLevel::Warn ? "warn" : "info") + ": " +
             message);
}

} // namespace detail
} // namespace mussti
