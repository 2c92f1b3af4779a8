/**
 * @file
 * Unit tests for the common library: RNG determinism, log-domain
 * fidelity, the LRU map, string helpers, CSV/table output, and summary
 * statistics.
 */
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/error.h"
#include "common/log_fidelity.h"
#include "common/lru_map.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace mussti {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniform(10), 10u);
}

TEST(Rng, IntInCoversRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.intIn(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(11);
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    auto copy = items;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, items);
}

TEST(LogFidelity, MatchesDirectProduct)
{
    LogFidelity f;
    double direct = 1.0;
    for (double v : {0.99, 0.9, 0.999, 0.5}) {
        f.multiply(v);
        direct *= v;
    }
    EXPECT_NEAR(f.value(), direct, 1e-12);
}

TEST(LogFidelity, SurvivesUnderflowScale)
{
    // 1e5 factors of 0.99 underflow a double product (~1e-437) but the
    // ln-sum stays exact.
    LogFidelity f;
    for (int i = 0; i < 100000; ++i)
        f.multiply(0.99);
    EXPECT_DOUBLE_EQ(f.value(), 0.0); // like the paper's Python zeros
    EXPECT_NEAR(f.log10(), 100000 * std::log10(0.99), 1e-6);
}

TEST(LogFidelity, ZeroFactorIsTerminal)
{
    LogFidelity f;
    f.multiply(0.5);
    f.multiply(0.0);
    EXPECT_TRUE(f.isZero());
    EXPECT_EQ(f.value(), 0.0);
    EXPECT_TRUE(std::isinf(f.ln()));
}

TEST(LogFidelity, CombineAccumulators)
{
    LogFidelity a, b;
    a.multiply(0.9);
    b.multiply(0.8);
    a.multiply(b);
    EXPECT_NEAR(a.value(), 0.72, 1e-12);
}

TEST(LogFidelity, MultiplyLnDirect)
{
    LogFidelity f;
    f.multiplyLn(std::log(0.25));
    EXPECT_NEAR(f.value(), 0.25, 1e-12);
}

TEST(LruMap, FindRefreshesRecencyContainsDoesNot)
{
    LruMap<int, std::string> lru;
    EXPECT_TRUE(lru.insert(1, "a"));
    EXPECT_TRUE(lru.insert(2, "b"));
    EXPECT_TRUE(lru.insert(3, "c"));
    EXPECT_FALSE(lru.insert(2, "other")); // incumbent kept
    EXPECT_EQ(*lru.find(2), "b");

    // find(1) makes 1 the newest; contains(3) leaves 3 the oldest.
    ASSERT_NE(lru.find(1), nullptr);
    EXPECT_TRUE(lru.contains(3));
    EXPECT_FALSE(lru.contains(4));
    EXPECT_EQ(lru.find(4), nullptr);
    EXPECT_EQ(lru.popOldest().first, 3);
}

TEST(LruMap, PopOldestFollowsUseOrderAndClearEmpties)
{
    LruMap<int, int> lru;
    for (int key = 1; key <= 4; ++key)
        lru.insert(key, 10 * key);
    lru.find(2);
    lru.find(1);
    // Use order, oldest first: 3, 4, 2, 1.
    std::vector<std::pair<int, int>> popped;
    while (lru.size() > 1)
        popped.push_back(lru.popOldest());
    const std::vector<std::pair<int, int>> want = {
        {3, 30}, {4, 40}, {2, 20}};
    EXPECT_EQ(popped, want);

    lru.insert(5, 50);
    lru.clear();
    EXPECT_TRUE(lru.empty());
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_FALSE(lru.contains(1));
    EXPECT_EQ(lru.find(5), nullptr);
}

TEST(StringUtil, Trim)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtil, Split)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(StringUtil, SplitSingleField)
{
    const auto fields = split("abc", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "abc");
}

TEST(StringUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("OPENQASM 2.0", "OPENQASM"));
    EXPECT_FALSE(startsWith("qreg", "qregs"));
}

TEST(StringUtil, ParseIntArgHardensCliTokens)
{
    // ISSUE-5 regression: positional CLI ints used to go through bare
    // atoi, so `capacity_explorer bv banana` silently ran with 0
    // qubits. parseIntArg fatals, naming the token and its role.
    EXPECT_EQ(parseIntArg("96", "qubit count"), 96);
    EXPECT_EQ(parseIntArg("  96 ", "qubit count"), 96);
    EXPECT_EQ(parseIntArg("-4", "offset"), -4);

    EXPECT_THROW(parseIntArg("banana", "qubit count"),
                 std::runtime_error);
    EXPECT_THROW(parseIntArg("12x", "qubit count"), std::runtime_error);
    EXPECT_THROW(parseIntArg("", "qubit count"), std::runtime_error);
    try {
        (void)parseIntArg("banana", "qubit count");
        FAIL();
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("banana"), std::string::npos) << what;
        EXPECT_NE(what.find("qubit count"), std::string::npos) << what;
    }
}

TEST(StringUtil, ToLower)
{
    EXPECT_EQ(toLower("GHZ_n32"), "ghz_n32");
}

TEST(StringUtil, FormatCompactIntegers)
{
    EXPECT_EQ(formatCompact(7.0), "7");
    EXPECT_EQ(formatCompact(11160.0), "11160");
}

TEST(CsvWriter, QuotesOnDemand)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(TextTable, AlignsColumns)
{
    TextTable table;
    table.setHeader({"app", "shuttles"});
    table.addRow({"GHZ_n32", "2"});
    table.addRow({"Adder_n32", "7"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("app"), std::string::npos);
    EXPECT_NE(text.find("Adder_n32"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Reduction)
{
    // ours halves the baseline everywhere -> 50%.
    EXPECT_NEAR(averageReductionPercent({10, 20}, {5, 10}), 50.0, 1e-9);
    // zero baseline entries are skipped.
    EXPECT_NEAR(averageReductionPercent({0, 20}, {5, 10}), 50.0, 1e-9);
}

TEST(Stats, MinMaxStddev)
{
    EXPECT_DOUBLE_EQ(minOf({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, 1.0, 2.0}), 3.0);
    EXPECT_NEAR(stddev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user error"), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("bug"), std::logic_error);
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(MUSSTI_ASSERT(1 == 2, "broken " << 42),
                 std::logic_error);
}

TEST(Logging, RequireMacroFiresOnFalse)
{
    EXPECT_THROW(MUSSTI_REQUIRE(false, "bad input"), std::runtime_error);
}

TEST(Logging, ScopedFatalSilenceStillThrows)
{
    // The guard only mutes the stderr echo; the exception (and its
    // diagnostic payload) must be unchanged.
    const ScopedFatalSilence quiet;
    try {
        fatal("quiet user error");
        FAIL();
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("quiet user error"),
                  std::string::npos);
    }
}

TEST(Logging, ScopedFatalSilenceDefaultKeepsWarns)
{
    testing::internal::CaptureStderr();
    {
        const ScopedFatalSilence quiet;
        warn("still audible");
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("still audible"), std::string::npos);
}

TEST(Logging, ScopedFatalSilenceCanMuteWarns)
{
    testing::internal::CaptureStderr();
    {
        const ScopedFatalSilence quiet(/*silence_warns=*/true);
        warn("muted warning");
        inform("never muted");
    }
    warn("audible again");
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("muted warning"), std::string::npos) << err;
    EXPECT_NE(err.find("never muted"), std::string::npos) << err;
    EXPECT_NE(err.find("audible again"), std::string::npos) << err;
}

TEST(ErrorTaxonomy, FatalCarriesInvalidInputCategory)
{
    const ScopedFatalSilence quiet;
    try {
        fatal("bad knob");
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(err.code(), "input.fatal");
        EXPECT_EQ(err.message(), "bad knob");
    }
}

TEST(ErrorTaxonomy, RequireMacroMapsToInvalidInput)
{
    const ScopedFatalSilence quiet;
    try {
        MUSSTI_REQUIRE(false, "rejected value " << 7);
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(err.code(), "input.require");
        EXPECT_NE(err.message().find("rejected value 7"),
                  std::string::npos);
    }
}

TEST(ErrorTaxonomy, PanicAndAssertMapToInternal)
{
    try {
        panic("bug");
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Internal);
        EXPECT_EQ(err.code(), "internal.panic");
    }
    try {
        MUSSTI_ASSERT(1 == 2, "broken invariant");
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Internal);
        EXPECT_EQ(err.code(), "internal.assert");
        EXPECT_NE(err.message().find("broken invariant"),
                  std::string::npos);
    }
}

TEST(ErrorTaxonomy, LegacyHandlersStillCatchByStandardType)
{
    // The dual-inheritance contract: every fatal is a runtime_error,
    // every panic a logic_error, and BOTH are MusstiError.
    const ScopedFatalSilence quiet;
    EXPECT_THROW(fatalCoded("input.fatal", "x"), std::runtime_error);
    EXPECT_THROW(panicCoded("internal.panic", "x"), std::logic_error);
    EXPECT_THROW(fatal("x"), MusstiError);
    EXPECT_THROW(panic("x"), MusstiError);
}

TEST(ErrorTaxonomy, RaiseErrorRoundTripsEveryCategory)
{
    const ScopedFatalSilence quiet;
    const ErrorCategory cats[] = {
        ErrorCategory::InvalidInput, ErrorCategory::ResourceExhausted,
        ErrorCategory::Timeout, ErrorCategory::Cancelled,
        ErrorCategory::Transient,
    };
    for (const ErrorCategory cat : cats) {
        try {
            raiseError(cat, "test.code", "round trip");
            FAIL() << errorCategoryName(cat);
        } catch (const MusstiError &err) {
            EXPECT_EQ(err.category(), cat);
            EXPECT_EQ(err.code(), "test.code");
            EXPECT_EQ(err.message(), "round trip");
        }
    }
}

TEST(ErrorTaxonomy, QuietCategoriesDoNotEchoToStderr)
{
    // Timeout/Cancelled/Transient are expected control-flow outcomes;
    // they must not spam the console even without a silence guard.
    testing::internal::CaptureStderr();
    EXPECT_THROW(raiseError(ErrorCategory::Timeout,
                            "job.deadline-exceeded", "t"),
                 std::runtime_error);
    EXPECT_THROW(raiseError(ErrorCategory::Cancelled, "job.cancelled",
                            "c"),
                 std::runtime_error);
    EXPECT_THROW(raiseError(ErrorCategory::Transient, "fault.injected",
                            "f"),
                 std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(ErrorTaxonomy, PayloadRaisesAsMatchingConcreteType)
{
    const MusstiError timeout(ErrorCategory::Timeout,
                              "job.deadline-exceeded", "too slow");
    EXPECT_THROW(timeout.raise(), std::runtime_error);
    const MusstiError bug(ErrorCategory::Internal, "internal.x", "bug");
    EXPECT_THROW(bug.raise(), std::logic_error);
    try {
        timeout.raise();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Timeout);
        EXPECT_EQ(err.code(), "job.deadline-exceeded");
    }
}

TEST(ErrorTaxonomy, DescribeCurrentExceptionClassifies)
{
    // Structured errors pass through losslessly.
    try {
        raiseError(ErrorCategory::Transient, "fault.injected", "x");
    } catch (...) {
        const MusstiError err = describeCurrentException();
        EXPECT_EQ(err.category(), ErrorCategory::Transient);
        EXPECT_EQ(err.code(), "fault.injected");
    }
    // Foreign exceptions are wrapped as Internal.
    try {
        throw std::runtime_error("foreign");
    } catch (...) {
        const MusstiError err = describeCurrentException();
        EXPECT_EQ(err.category(), ErrorCategory::Internal);
        EXPECT_EQ(err.code(), "internal.uncaught");
        EXPECT_NE(err.message().find("foreign"), std::string::npos);
    }
}

TEST(StringUtil, ParseEnvThreadCountCoversEveryShape)
{
    const ScopedFatalSilence quiet(true); // the reject paths warn

    // Absent or empty knob: auto (hardware concurrency).
    EXPECT_EQ(parseEnvThreadCount("T", nullptr), 0);
    EXPECT_EQ(parseEnvThreadCount("T", ""), 0);

    // Well-formed positives pass through.
    EXPECT_EQ(parseEnvThreadCount("T", "1"), 1);
    EXPECT_EQ(parseEnvThreadCount("T", "8"), 8);

    // Garbage and non-positive values fall back to auto instead of
    // atoi's silent 0-threads.
    EXPECT_EQ(parseEnvThreadCount("T", "banana"), 0);
    EXPECT_EQ(parseEnvThreadCount("T", "3x"), 0);
    EXPECT_EQ(parseEnvThreadCount("T", "0"), 0);
    EXPECT_EQ(parseEnvThreadCount("T", "-4"), 0);

    // Oversized requests clamp to the ceiling (default and custom).
    EXPECT_EQ(parseEnvThreadCount("T", "100000"), 512);
    EXPECT_EQ(parseEnvThreadCount("T", "9", 4), 4);
}

TEST(ErrorTaxonomy, CategoryNamesAreStable)
{
    EXPECT_STREQ(errorCategoryName(ErrorCategory::InvalidInput),
                 "InvalidInput");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::ResourceExhausted),
                 "ResourceExhausted");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Timeout), "Timeout");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Cancelled),
                 "Cancelled");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Transient),
                 "Transient");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Internal), "Internal");
}

TEST(ErrorTaxonomy, RunMainMapsEscapedErrorsToExitCodes)
{
    // The body's own exit code passes through; an escaped error becomes
    // 2 (InvalidInput) or 1 (anything else) and reaches stderr once.
    const auto run = [](int (*body)(int, char **), std::string &err) {
        testing::internal::CaptureStderr();
        const int rc = runMain(0, nullptr, body);
        err = testing::internal::GetCapturedStderr();
        return rc;
    };
    std::string err;
    EXPECT_EQ(run(+[](int, char **) { return 7; }, err), 7);
    EXPECT_EQ(err, "");

    EXPECT_EQ(run(+[](int, char **) -> int { fatal("bad input"); }, err),
              2);
    EXPECT_EQ(err, "fatal: bad input\n"); // die() echoed; no second line

    EXPECT_EQ(run(+[](int, char **) -> int { panic("broken"); }, err), 1);
    EXPECT_EQ(err, "panic: broken\n");

    EXPECT_EQ(run(+[](int, char **) -> int {
                  raiseError(ErrorCategory::Timeout, "job.deadline-exceeded",
                             "too slow");
              }, err),
              1);
    EXPECT_EQ(err, "Timeout (job.deadline-exceeded): too slow\n");

    EXPECT_EQ(run(+[](int, char **) -> int {
                  throw std::runtime_error("foreign");
              }, err),
              1);
    EXPECT_EQ(err, "Internal (internal.uncaught): foreign\n");
}

} // namespace
} // namespace mussti
