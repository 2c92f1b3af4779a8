#pragma once

#include <exception>
#include <stdexcept>
#include <string>

namespace mussti {

/**
 * Failure taxonomy for the compile stack.
 *
 * Every error raised through the logging layer (fatal(), panic(), the
 * MUSSTI_REQUIRE / MUSSTI_ASSERT macros) or the job-control layer
 * (deadlines, cancellation, fault injection) carries one of these
 * categories plus a stable machine-readable code string, mirroring the
 * lint rule-id discipline (`sch.capacity`, `search.degenerate-range`).
 *
 *  - InvalidInput:      the caller handed us something malformed — bad
 *                       QASM, an impossible device spec, a circuit that
 *                       fails validation. Retrying is pointless.
 *  - ResourceExhausted: the request is well-formed but exceeds a
 *                       capacity limit (device slots, memory).
 *  - Timeout:           a per-job deadline expired.
 *  - Cancelled:         a cancellation token fired or the service shut
 *                       down while the job was queued/in flight.
 *  - Transient:         a retryable fault (injected or environmental);
 *                       the service retries these with bounded backoff.
 *  - Internal:          a bug — an invariant we own was violated.
 */
enum class ErrorCategory {
    InvalidInput,
    ResourceExhausted,
    Timeout,
    Cancelled,
    Transient,
    Internal,
};

const char *errorCategoryName(ErrorCategory category);

/**
 * Timeout/Cancelled/Transient are expected control-flow outcomes of a
 * managed compile job, not diagnostics: raising one never echoes to
 * stderr (common/logging.h).
 */
bool isQuietCategory(ErrorCategory category);

/**
 * Structured error payload: category + stable code + diagnostic.
 *
 * Deliberately NOT derived from std::exception — it is a copyable value
 * used both as a payload base of the concrete throwable types below and
 * as the error arm of CompileOutcome. `catch (const MusstiError &)`
 * catches every error the stack raises, while legacy
 * `catch (const std::runtime_error &)` / `catch (const std::logic_error &)`
 * handlers keep working unchanged via the concrete types.
 */
class MusstiError
{
  public:
    MusstiError() = default;
    MusstiError(ErrorCategory category, std::string code, std::string message)
        : category_(category), code_(std::move(code)),
          message_(std::move(message))
    {}
    virtual ~MusstiError() = default;
    MusstiError(const MusstiError &) = default;
    MusstiError(MusstiError &&) = default;
    MusstiError &operator=(const MusstiError &) = default;
    MusstiError &operator=(MusstiError &&) = default;

    ErrorCategory category() const { return category_; }
    const std::string &code() const { return code_; }
    const std::string &message() const { return message_; }
    const char *categoryName() const { return errorCategoryName(category_); }

    /** Throw this payload as the category-appropriate concrete type. */
    [[noreturn]] void raise() const;

    /** The same, packaged for std::promise::set_exception. */
    std::exception_ptr toExceptionPtr() const;

  private:
    ErrorCategory category_ = ErrorCategory::Internal;
    std::string code_ = "internal.unclassified";
    std::string message_;
};

/**
 * User-class failure (anything but Internal). Inherits
 * std::runtime_error so every existing `catch (std::runtime_error)`
 * around fatal() paths keeps firing; what() keeps the "fatal: " prefix.
 */
class MusstiFault : public std::runtime_error, public MusstiError
{
  public:
    MusstiFault(ErrorCategory category, std::string code,
                const std::string &message)
        : std::runtime_error("fatal: " + message),
          MusstiError(category, std::move(code), message)
    {}
};

/**
 * Bug-class failure (always Internal). Inherits std::logic_error so
 * `catch (std::logic_error)` around panic()/MUSSTI_ASSERT paths keeps
 * firing; what() keeps the "panic: " prefix.
 */
class MusstiPanic : public std::logic_error, public MusstiError
{
  public:
    MusstiPanic(std::string code, const std::string &message)
        : std::logic_error("panic: " + message),
          MusstiError(ErrorCategory::Internal, std::move(code), message)
    {}
};

/**
 * Classify the in-flight exception (call inside a catch block) into a
 * structured error. MusstiError-carrying exceptions pass through
 * losslessly; foreign exceptions are wrapped (bad_alloc becomes
 * ResourceExhausted, anything else Internal).
 */
MusstiError describeCurrentException();

/**
 * The shared `main` of the command-line tools: returns body(argc, argv),
 * turning an error that escapes it into an exit code instead of
 * std::terminate — 2 for InvalidInput, 1 for every other category. The
 * error reaches stderr once: fatal() and panic() echo theirs when
 * raised, so only quiet categories and foreign exceptions print here.
 */
int runMain(int argc, char **argv, int (*body)(int argc, char **argv));

} // namespace mussti
