/**
 * @file
 * Static analyzers for the configuration surface: device specs, the
 * tuner's search-range grammar, and MusstiConfig knobs.
 *
 * The registry/search parsers fatal() on malformed input — correct for
 * a CLI, useless for tooling that wants ALL problems listed. These
 * linters never throw: they scan tolerantly and report findings, so a
 * sweep driver can vet a spec file before burning a tuner run on it.
 *
 * Rule catalog (full rationale in src/lint/README.md):
 *   spec.family           unknown device family tag
 *   spec.token            unknown spec key (with nearest-key suggestion)
 *   spec.capacity         trap capacity cannot host a 2q gate
 *   spec.gate-zones       a module has no gate-capable zone
 *   spec.optical-link     multi-module device without fiber endpoints
 *   spec.workload-fit     device cannot hold the workload's qubits
 *   search.degenerate-range  lo == hi / lo > hi / malformed bounds
 *   search.step-overshoot    step larger than the range it walks
 *   search.singleton         a "search" that enumerates one candidate
 *   cfg.lookahead         weight-table look-ahead out of range
 *   cfg.swap-threshold    SWAP insertion below its 3-gate break-even
 *   cfg.horizon           lookAhead deeper than the DAG window horizon
 */
#ifndef MUSSTI_LINT_SPEC_LINTER_H
#define MUSSTI_LINT_SPEC_LINTER_H

#include <string>

#include "lint/lint.h"

namespace mussti {

struct DeviceSpec;   // arch/device_registry.h
struct MusstiConfig; // core/config.h

/** Stable spec/search/config lint rule ids. */
namespace lint_rules {
inline constexpr const char *kSpecFamily = "spec.family";
inline constexpr const char *kSpecToken = "spec.token";
inline constexpr const char *kSpecCapacity = "spec.capacity";
inline constexpr const char *kSpecGateZones = "spec.gate-zones";
inline constexpr const char *kSpecOpticalLink = "spec.optical-link";
inline constexpr const char *kSpecWorkloadFit = "spec.workload-fit";
inline constexpr const char *kSearchDegenerateRange =
    "search.degenerate-range";
inline constexpr const char *kSearchStepOvershoot =
    "search.step-overshoot";
inline constexpr const char *kSearchSingleton = "search.singleton";
inline constexpr const char *kCfgLookahead = "cfg.lookahead";
inline constexpr const char *kCfgSwapThreshold = "cfg.swap-threshold";
inline constexpr const char *kCfgHorizon = "cfg.horizon";
} // namespace lint_rules

/**
 * Lint a parsed device spec. `workload_qubits` >= 0 additionally checks
 * the device can host that many program qubits (spec.workload-fit);
 * pass -1 when no workload is known.
 */
LintReport lintDeviceSpec(const DeviceSpec &spec, int workload_qubits = -1);

/**
 * Lint a spec or spec-search string BEFORE parsing it (the parsers
 * fatal() on the problems this reports). Accepts both the concrete
 * registry grammar and the search superset; never throws.
 */
LintReport lintSpecSearchText(const std::string &text);

/**
 * Lint compiler knobs: range checks plus cross-knob consistency, and
 * the embedded device config via lintDeviceSpec.
 */
LintReport lintMusstiConfig(const MusstiConfig &config,
                            int workload_qubits = -1);

} // namespace mussti

#endif // MUSSTI_LINT_SPEC_LINTER_H
