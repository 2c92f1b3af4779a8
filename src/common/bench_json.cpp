#include "common/bench_json.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace mussti {

namespace {

std::string
number(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

BenchPassTiming
parsePassTiming(JsonReader &p)
{
    BenchPassTiming timing;
    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "pass")
            timing.pass = p.parseString();
        else if (key == "ms")
            timing.ms = p.parseNumber();
        else
            p.skipValue();
    } while (p.consumeIf(','));
    p.expect('}');
    return timing;
}

BenchRecord
parseRecord(JsonReader &p)
{
    BenchRecord record;
    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "suite") {
            record.suite = p.parseString();
        } else if (key == "name") {
            record.name = p.parseString();
        } else if (key == "qubits") {
            record.qubits = static_cast<int>(p.parseNumber());
        } else if (key == "repeats") {
            record.repeats = static_cast<int>(p.parseNumber());
        } else if (key == "wall_ms") {
            record.wallMs = p.parseNumber();
        } else if (key == "speedup_vs_baseline") {
            record.speedupVsBaseline = p.parseNumber();
        } else if (key == "routing_steps") {
            record.routingSteps = static_cast<long long>(p.parseNumber());
        } else if (key == "window_visits") {
            record.windowVisits = static_cast<long long>(p.parseNumber());
        } else if (key == "steady_allocs") {
            record.steadyAllocs = static_cast<long long>(p.parseNumber());
        } else if (key == "ops_emitted") {
            record.opsEmitted = static_cast<long long>(p.parseNumber());
        } else if (key == "schedule_bytes") {
            record.scheduleBytes = static_cast<long long>(p.parseNumber());
        } else if (key == "shuttles") {
            record.shuttles = static_cast<long long>(p.parseNumber());
        } else if (key == "makespan_us") {
            record.makespanUs = p.parseNumber();
        } else if (key == "log10_fidelity") {
            record.log10Fidelity = p.parseNumber();
        } else if (key == "delta_cold_ms") {
            record.deltaColdMs = p.parseNumber();
        } else if (key == "delta_speedup") {
            record.deltaSpeedup = p.parseNumber();
        } else if (key == "pass_trace") {
            p.expect('[');
            if (!p.consumeIf(']')) {
                do {
                    record.passTrace.push_back(parsePassTiming(p));
                } while (p.consumeIf(','));
                p.expect(']');
            }
        } else if (key != "allocs_per_step" &&
                   (p.peek() == '-' ||
                    std::isdigit(static_cast<unsigned char>(p.peek())))) {
            record.counters.emplace_back(
                key, static_cast<long long>(p.parseNumber()));
        } else {
            p.skipValue(); // derived (allocs_per_step) or non-numeric
        }
    } while (p.consumeIf(','));
    p.expect('}');
    return record;
}

} // namespace

std::string
benchResultsToJson(const std::vector<BenchRecord> &records,
                   const std::string &context)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"mussti-bench-v1\",\n";
    out << "  \"context\": \"" << jsonEscape(context) << "\",\n";
    out << "  \"results\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const BenchRecord &r = records[i];
        out << (i ? ",\n" : "\n");
        out << "    {\"suite\": \"" << jsonEscape(r.suite) << "\", "
            << "\"name\": \"" << jsonEscape(r.name) << "\", "
            << "\"qubits\": " << r.qubits << ", "
            << "\"repeats\": " << r.repeats << ", "
            << "\"wall_ms\": " << number(r.wallMs);
        if (r.speedupVsBaseline > 0.0) {
            out << ", \"speedup_vs_baseline\": "
                << number(r.speedupVsBaseline);
        }
        if (r.routingSteps >= 0)
            out << ", \"routing_steps\": " << r.routingSteps;
        if (r.steadyAllocs >= 0) {
            out << ", \"steady_allocs\": " << r.steadyAllocs
                << ", \"allocs_per_step\": "
                << number(r.routingSteps > 0
                              ? static_cast<double>(r.steadyAllocs) /
                                    static_cast<double>(r.routingSteps)
                              : 0.0);
        }
        if (r.windowVisits >= 0)
            out << ", \"window_visits\": " << r.windowVisits;
        if (r.opsEmitted >= 0)
            out << ", \"ops_emitted\": " << r.opsEmitted;
        if (r.scheduleBytes >= 0)
            out << ", \"schedule_bytes\": " << r.scheduleBytes;
        if (r.shuttles >= 0) {
            out << ", \"shuttles\": " << r.shuttles
                << ", \"makespan_us\": " << number(r.makespanUs)
                << ", \"log10_fidelity\": " << number(r.log10Fidelity);
        }
        if (r.deltaColdMs > 0.0) {
            out << ", \"delta_cold_ms\": " << number(r.deltaColdMs)
                << ", \"delta_speedup\": " << number(r.deltaSpeedup);
        }
        for (const auto &[key, value] : r.counters)
            out << ", \"" << jsonEscape(key) << "\": " << value;
        if (!r.passTrace.empty()) {
            out << ", \"pass_trace\": [";
            for (std::size_t j = 0; j < r.passTrace.size(); ++j) {
                out << (j ? ", " : "")
                    << "{\"pass\": \"" << jsonEscape(r.passTrace[j].pass)
                    << "\", \"ms\": " << number(r.passTrace[j].ms) << "}";
            }
            out << "]";
        }
        out << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

void
writeBenchResults(const std::string &path,
                  const std::vector<BenchRecord> &records,
                  const std::string &context)
{
    std::ofstream out(path);
    MUSSTI_REQUIRE(out.good(), "cannot open bench results file: " << path);
    out << benchResultsToJson(records, context);
    out.flush();
    MUSSTI_REQUIRE(out.good(), "failed writing bench results: " << path);
}

std::vector<BenchRecord>
parseBenchResults(const std::string &text, std::string *context_out)
{
    JsonReader p(text);
    std::vector<BenchRecord> records;
    std::string schema;

    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "schema") {
            schema = p.parseString();
        } else if (key == "context") {
            const std::string context = p.parseString();
            if (context_out)
                *context_out = context;
        } else if (key == "results") {
            p.expect('[');
            if (!p.consumeIf(']')) {
                do {
                    records.push_back(parseRecord(p));
                } while (p.consumeIf(','));
                p.expect(']');
            }
        } else {
            p.skipValue();
        }
    } while (p.consumeIf(','));
    p.expect('}');
    MUSSTI_REQUIRE(p.atEnd(), "trailing content after bench JSON");
    MUSSTI_REQUIRE(schema == "mussti-bench-v1",
                   "unsupported bench schema: `" << schema << "`");
    return records;
}

std::vector<BenchRecord>
readBenchResults(const std::string &path, std::string *context_out)
{
    std::ifstream in(path);
    MUSSTI_REQUIRE(in.good(), "cannot read bench results file: " << path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseBenchResults(buffer.str(), context_out);
}

} // namespace mussti
