#include "common/error.h"

#include <iostream>
#include <new>

namespace mussti {

const char *
errorCategoryName(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::InvalidInput: return "InvalidInput";
      case ErrorCategory::ResourceExhausted: return "ResourceExhausted";
      case ErrorCategory::Timeout: return "Timeout";
      case ErrorCategory::Cancelled: return "Cancelled";
      case ErrorCategory::Transient: return "Transient";
      case ErrorCategory::Internal: return "Internal";
    }
    return "Internal";
}

bool
isQuietCategory(ErrorCategory category)
{
    return category == ErrorCategory::Timeout ||
           category == ErrorCategory::Cancelled ||
           category == ErrorCategory::Transient;
}

void
MusstiError::raise() const
{
    if (category_ == ErrorCategory::Internal)
        throw MusstiPanic(code_, message_);
    throw MusstiFault(category_, code_, message_);
}

std::exception_ptr
MusstiError::toExceptionPtr() const
{
    if (category_ == ErrorCategory::Internal)
        return std::make_exception_ptr(MusstiPanic(code_, message_));
    return std::make_exception_ptr(MusstiFault(category_, code_, message_));
}

MusstiError
describeCurrentException()
{
    try {
        throw;
    } catch (const MusstiError &err) {
        return err;
    } catch (const std::bad_alloc &) {
        return MusstiError(ErrorCategory::ResourceExhausted, "resource.alloc",
                           "allocation failed");
    } catch (const std::exception &err) {
        return MusstiError(ErrorCategory::Internal, "internal.uncaught",
                           err.what());
    } catch (...) {
        return MusstiError(ErrorCategory::Internal, "internal.unknown",
                           "unknown exception");
    }
}

namespace {

/** Print `error` unless raising it echoed it; return its exit code. */
int
exitCodeOf(const MusstiError &error, bool echoed)
{
    if (!echoed)
        std::cerr << error.categoryName() << " (" << error.code()
                  << "): " << error.message() << std::endl;
    return error.category() == ErrorCategory::InvalidInput ? 2 : 1;
}

} // namespace

int
runMain(int argc, char **argv, int (*body)(int argc, char **argv))
{
    try {
        return body(argc, argv);
    } catch (const MusstiError &error) {
        return exitCodeOf(error, !isQuietCategory(error.category()));
    } catch (...) {
        return exitCodeOf(describeCurrentException(), false);
    }
}

} // namespace mussti
