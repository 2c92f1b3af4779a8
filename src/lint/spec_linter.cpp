#include "lint/spec_linter.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "arch/device_registry.h"
#include "common/string_util.h"
#include "core/config.h"
#include "dag/dag.h"

namespace mussti {

namespace {

/** Known spec keys after canonicalSpecKey folding, both families. */
const char *const kKnownKeys[] = {"cap",     "storage", "op",
                                  "optical", "maxq",    "modules",
                                  "pitch",   "hetero"};

/** Levenshtein distance, for did-you-mean key suggestions. */
int
editDistance(const std::string &a, const std::string &b)
{
    std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = static_cast<int>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = static_cast<int>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const int sub = prev[j - 1] + (a[i - 1] != b[j - 1]);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/** Closest known key within edit distance 2, or empty. */
std::string
nearestKnownKey(const std::string &key)
{
    std::string best;
    int best_distance = 3;
    for (const char *candidate : kKnownKeys) {
        const int d = editDistance(key, candidate);
        if (d < best_distance) {
            best_distance = d;
            best = candidate;
        }
    }
    return best;
}

/** True for a grid geometry token like "4x3". */
bool
isGeometryToken(const std::string &token)
{
    const std::size_t x = token.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == token.size())
        return false;
    return parseIntStrict(token.substr(0, x)).has_value() &&
           parseIntStrict(token.substr(x + 1)).has_value();
}

/** One parsed range token: `lo..hi[:step=n]`. */
struct RangeToken
{
    std::optional<int> lo, hi, step;
    bool hasStep = false;
    bool malformed = false;
};

RangeToken
parseRangeToken(const std::string &value)
{
    RangeToken out;
    const std::size_t dots = value.find("..");
    std::string hi_part = value.substr(dots + 2);
    const std::size_t step_at = hi_part.find(":step=");
    if (step_at != std::string::npos) {
        out.hasStep = true;
        out.step = parseIntStrict(trim(hi_part.substr(step_at + 6)));
        hi_part = hi_part.substr(0, step_at);
    } else if (hi_part.find(':') != std::string::npos) {
        out.malformed = true; // Some other `:suffix` the grammar lacks.
        hi_part = hi_part.substr(0, hi_part.find(':'));
    }
    out.lo = parseIntStrict(trim(value.substr(0, dots)));
    out.hi = parseIntStrict(trim(hi_part));
    if (!out.lo || !out.hi || (out.hasStep && !out.step))
        out.malformed = true;
    return out;
}

/** Per-module zone mix of one spec (index = module). */
std::vector<EmlModuleMix>
moduleMixesOf(const EmlConfig &config, int module_count)
{
    if (!config.moduleMix.empty())
        return config.moduleMix;
    return std::vector<EmlModuleMix>(
        std::max(module_count, 1),
        EmlModuleMix{config.numStorageZones, config.numOperationZones,
                     config.numOpticalZones});
}

} // namespace

LintReport
lintDeviceSpec(const DeviceSpec &spec, int workload_qubits)
{
    LintReport report;
    const std::string where = spec.canonical();

    if (spec.family == DeviceFamily::Grid) {
        const GridConfig &g = spec.grid;
        if (g.trapCapacity < 2)
            report.add(lint_rules::kSpecCapacity, LintSeverity::Error,
                       where,
                       "trap capacity " +
                           std::to_string(g.trapCapacity) +
                           " cannot co-locate the two ions a 2q gate "
                           "needs");
        if (workload_qubits >= 0) {
            const long long slots = static_cast<long long>(g.width) *
                                    g.height * g.trapCapacity;
            if (workload_qubits > slots) {
                std::ostringstream out;
                out << "grid holds " << slots << " ions but the "
                    << "workload needs " << workload_qubits;
                report.add(lint_rules::kSpecWorkloadFit,
                           LintSeverity::Error, where, out.str());
            }
        }
        return report;
    }

    const EmlConfig &e = spec.eml;
    if (e.trapCapacity < 2)
        report.add(lint_rules::kSpecCapacity, LintSeverity::Error, where,
                   "trap capacity " + std::to_string(e.trapCapacity) +
                       " cannot co-locate the two ions a 2q gate needs");

    // Module count when it is knowable without a workload: pinned by a
    // mix or by forcedNumModules; otherwise derived from the workload.
    int module_count = -1;
    if (!e.moduleMix.empty())
        module_count = static_cast<int>(e.moduleMix.size());
    else if (e.forcedNumModules >= 1)
        module_count = e.forcedNumModules;
    else if (workload_qubits >= 0 && e.maxQubitsPerModule > 0)
        module_count = std::max(
            1, (workload_qubits + e.maxQubitsPerModule - 1) /
                   e.maxQubitsPerModule);

    const std::vector<EmlModuleMix> mixes =
        moduleMixesOf(e, std::max(module_count, 1));
    long long slots_per_module_min = -1;
    long long total_slots = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const EmlModuleMix &mix = mixes[m];
        const long long zones =
            mix.storage + mix.operation + mix.optical;
        const long long slots = zones * e.trapCapacity;
        total_slots += slots;
        if (slots_per_module_min < 0 || slots < slots_per_module_min)
            slots_per_module_min = slots;
        if (mix.operation + mix.optical <= 0) {
            std::ostringstream out;
            out << "module " << m << " has no gate-capable zone: no 2q "
                << "gate can ever execute there";
            report.add(lint_rules::kSpecGateZones, LintSeverity::Error,
                       where, out.str());
        }
        if (mixes.size() >= 2 && mix.optical <= 0) {
            std::ostringstream out;
            out << "module " << m << " has no optical zone, so it "
                << "cannot entangle with the other "
                << mixes.size() - 1 << " module(s)";
            report.add(lint_rules::kSpecOpticalLink, LintSeverity::Error,
                       where, out.str());
        }
    }
    if (module_count < 0 && e.numOpticalZones <= 0)
        report.add(lint_rules::kSpecOpticalLink, LintSeverity::Warning,
                   where,
                   "no optical zones: any multi-module instantiation "
                   "of this spec will have unreachable modules");

    if (e.moduleMix.empty() && e.forcedNumModules < 1 &&
        slots_per_module_min >= 0 &&
        e.maxQubitsPerModule > slots_per_module_min) {
        std::ostringstream out;
        out << "maxQubitsPerModule " << e.maxQubitsPerModule
            << " exceeds a module's " << slots_per_module_min
            << " ion slots — the derived module count under-provisions";
        report.add(lint_rules::kSpecWorkloadFit, LintSeverity::Warning,
                   where, out.str());
    }

    if (workload_qubits >= 0 && module_count >= 1) {
        // mixes holds one entry per module in both branches, so
        // total_slots is already the device-wide slot count.
        if (workload_qubits > total_slots) {
            std::ostringstream out;
            out << "device holds " << total_slots
                << " ions across " << module_count
                << " module(s) but the workload needs "
                << workload_qubits;
            report.add(lint_rules::kSpecWorkloadFit, LintSeverity::Error,
                       where, out.str());
        }
    }
    return report;
}

LintReport
lintSpecSearchText(const std::string &text)
{
    LintReport report;
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos) {
        report.add(lint_rules::kSpecFamily, LintSeverity::Error, text,
                   "spec has no `family:` prefix (want `eml:...` or "
                   "`grid:...`)");
        return report;
    }
    const std::string family = toLower(trim(text.substr(0, colon)));
    if (family != "eml" && family != "grid") {
        std::string message = "unknown device family `" + family + "`";
        const int to_eml = editDistance(family, "eml");
        const int to_grid = editDistance(family, "grid");
        if (std::min(to_eml, to_grid) <= 2)
            message += std::string(" — did you mean `") +
                       (to_eml <= to_grid ? "eml" : "grid") + "`?";
        report.add(lint_rules::kSpecFamily, LintSeverity::Error, text,
                   message);
    }

    bool any_range = false;
    long long candidate_product = 1;
    for (const std::string &raw : split(text.substr(colon + 1), ',')) {
        const std::string token = trim(raw);
        if (token.empty()) {
            report.add(lint_rules::kSpecToken, LintSeverity::Error, text,
                       "empty spec token (stray comma?)");
            continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            if (!isGeometryToken(token)) {
                report.add(lint_rules::kSpecToken, LintSeverity::Error,
                           token,
                           "token is neither `key=value` nor a WxH "
                           "geometry");
            }
            continue;
        }

        const std::string key =
            canonicalSpecKey(toLower(trim(token.substr(0, eq))));
        const std::string value = trim(token.substr(eq + 1));
        if (std::find_if(std::begin(kKnownKeys), std::end(kKnownKeys),
                         [&](const char *k) { return key == k; }) ==
            std::end(kKnownKeys)) {
            std::string message = "unknown spec key `" + key + "`";
            const std::string suggestion = nearestKnownKey(key);
            if (!suggestion.empty())
                message += " — did you mean `" + suggestion + "`?";
            report.add(lint_rules::kSpecToken, LintSeverity::Error, token,
                       message);
            continue;
        }

        if (key == "hetero" || value.find("..") == std::string::npos)
            continue;

        any_range = true;
        const RangeToken range = parseRangeToken(value);
        if (range.malformed || !range.lo || !range.hi) {
            report.add(lint_rules::kSearchDegenerateRange,
                       LintSeverity::Error, token,
                       "malformed range (want `lo..hi[:step=n]` with "
                       "integer bounds)");
            continue;
        }
        const int lo = *range.lo, hi = *range.hi;
        const int step = range.hasStep && range.step ? *range.step : 1;
        if (lo > hi) {
            std::ostringstream out;
            out << "empty range: lo " << lo << " > hi " << hi;
            report.add(lint_rules::kSearchDegenerateRange,
                       LintSeverity::Error, token, out.str());
            continue;
        }
        if (step < 1) {
            report.add(lint_rules::kSearchDegenerateRange,
                       LintSeverity::Error, token,
                       "step must be >= 1, got " +
                           std::to_string(step));
            continue;
        }
        if (lo == hi) {
            report.add(lint_rules::kSearchDegenerateRange,
                       LintSeverity::Warning, token,
                       "degenerate range: lo == hi enumerates a single "
                       "value — write `" + key + "=" +
                           std::to_string(lo) + "` if that is meant");
        } else if (step > hi - lo) {
            std::ostringstream out;
            out << "step " << step << " overshoots the range width "
                << hi - lo << ": only lo " << lo << " is enumerated";
            report.add(lint_rules::kSearchStepOvershoot,
                       LintSeverity::Warning, token, out.str());
        }
        candidate_product *= (hi - lo) / step + 1;
    }

    if (any_range && candidate_product == 1)
        report.add(lint_rules::kSearchSingleton, LintSeverity::Warning,
                   text,
                   "every range collapses to one value: the search "
                   "space holds a single candidate");
    return report;
}

LintReport
lintMusstiConfig(const MusstiConfig &config, int workload_qubits)
{
    LintReport report;
    const std::string where = "MusstiConfig";

    if (config.lookAhead < 1)
        report.add(lint_rules::kCfgLookahead, LintSeverity::Error, where,
                   "lookAhead must be >= 1, got " +
                       std::to_string(config.lookAhead));
    if (config.lookAhead > DependencyDag::kDefaultWindowHorizon) {
        std::ostringstream out;
        out << "lookAhead " << config.lookAhead
            << " exceeds the DAG window horizon "
            << DependencyDag::kDefaultWindowHorizon
            << ": the weight table asks for layers the DAG window "
            << "never maintains, and the scheduler rejects it";
        report.add(lint_rules::kCfgHorizon, LintSeverity::Error, where,
                   out.str());
    }
    if (config.enableSwapInsertion && config.swapThreshold < 3) {
        std::ostringstream out;
        out << "swapThreshold " << config.swapThreshold
            << " is below the 3-gate cost of an inserted SWAP: "
            << "insertion can never break even";
        report.add(lint_rules::kCfgSwapThreshold, LintSeverity::Error,
                   where, out.str());
    }

    report.merge(
        lintDeviceSpec(DeviceRegistry::specOf(config.device),
                       workload_qubits));
    return report;
}

} // namespace mussti
