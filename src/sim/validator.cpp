#include "sim/validator.h"

#include "lint/schedule_linter.h"

namespace mussti {

namespace {

/** The invariant (validator.h) a schedule-lint rule checks. */
const char *
invariantOf(const std::string &rule)
{
    if (rule == lint_rules::kCapacity)
        return "P2";
    if (rule == lint_rules::kZone)
        return "P3";
    if (rule == lint_rules::kDepOrder || rule == lint_rules::kCoverage)
        return "P4";
    if (rule == lint_rules::kSwapTriple)
        return "P5";
    return "P1"; // sch.shuttle, sch.placement
}

} // namespace

ValidationReport
ScheduleValidator::validate(const Schedule &schedule,
                            const Circuit &circuit) const
{
    const LintReport report = ScheduleLinter(device_).lint(schedule, circuit);
    for (const LintFinding &finding : report.findings) {
        if (finding.severity == LintSeverity::Error)
            return {false, finding.location + ": " + finding.message +
                               " (" + invariantOf(finding.rule) + ", " +
                               finding.rule + ")"};
    }
    return {};
}

} // namespace mussti
