/**
 * @file
 * The uniform compiler-backend interface.
 *
 * A backend is a named, configured compiler: circuit in, CompileResult
 * out. MUSS-TI (core/compiler.h) and every grid baseline
 * (baselines/grid_compiler_base.h) implement it, so bench drivers, the
 * CLI, and the CompileService never special-case a compiler type.
 * Backends are immutable after construction and safe to share across
 * threads; every compile() call builds private state.
 */
#ifndef MUSSTI_CORE_BACKEND_H
#define MUSSTI_CORE_BACKEND_H

#include <cstdint>
#include <optional>
#include <string>

#include "core/pipeline.h"

namespace mussti {

/**
 * Everything a caller may add to a compile besides the circuit. The
 * defaults are a plain compile under the backend's configured seed.
 */
struct CompileOptions
{
    /**
     * RNG seed for stochastic passes (the CompileService's per-job
     * seeding hook); unset means the backend's configured seed.
     * Deterministic backends ignore it.
     */
    std::optional<std::uint64_t> seed{};

    /**
     * Delta-compilation exchange (may be null): resume candidates in,
     * captured checkpoints out. The result is bit-identical whether or
     * not a resume happens. Backends without a delta path leave it with
     * nothing captured and `resumed == false`.
     */
    DeltaCompileIO *delta = nullptr;

    /**
     * Deadline/cancellation control (may be null = uncontrolled),
     * checked at every pass boundary and inside the scheduler loops.
     */
    const JobControl *control = nullptr;
};

/** A configured compiler behind a uniform interface. */
class ICompilerBackend
{
  public:
    virtual ~ICompilerBackend() = default;

    /** Stable backend identifier ("mussti", "murali", "dai", "mqt"). */
    virtual const std::string &name() const = 0;

    /**
     * Compile and evaluate a circuit; the only compile entry point. The
     * circuit is only read, so a caller that retries keeps it intact.
     */
    virtual CompileResult
    compile(const Circuit &circuit,
            const CompileOptions &options = {}) const = 0;

    /**
     * Digest of everything besides the circuit and the per-job seed that
     * determines the output: backend identity, configuration, and
     * physical parameters. One third of the service's cache key.
     */
    virtual std::uint64_t configDigest() const = 0;
};

} // namespace mussti

#endif // MUSSTI_CORE_BACKEND_H
