/**
 * @file
 * The MUSS-TI compiler facade: circuit in, evaluated schedule out.
 * This is the primary public entry point of the library.
 *
 * Internally the compiler is a pass pipeline (core/pipeline.h):
 *
 *   lower-swaps -> eml-target -> trivial-placement -> mussti-schedule
 *               -> sabre-two-fold -> evaluate
 *
 * and it is one ICompilerBackend among several (core/backend.h), so
 * services and bench drivers can treat it interchangeably with the grid
 * baselines.
 */
#ifndef MUSSTI_CORE_COMPILER_H
#define MUSSTI_CORE_COMPILER_H

#include <memory>

#include "arch/eml_device.h"
#include "circuit/circuit.h"
#include "core/backend.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "sim/params.h"

namespace mussti {

/**
 * MUSS-TI compiler for EML-QCCD devices.
 *
 * Usage:
 * @code
 *   MusstiConfig config;              // paper defaults
 *   MusstiCompiler compiler(config);
 *   CompileResult result = compiler.compile(makeGhz(64));
 *   std::cout << result.metrics.shuttleCount;
 * @endcode
 */
class MusstiCompiler : public ICompilerBackend
{
  public:
    explicit MusstiCompiler(const MusstiConfig &config = {},
                            const PhysicalParams &params = {})
        : config_(config), params_(params)
    {}

    const MusstiConfig &config() const { return config_; }
    const PhysicalParams &params() const { return params_; }

    /**
     * The device a given circuit compiles onto (ceil(n/32) modules),
     * created through the DeviceRegistry like the target pass's.
     */
    std::shared_ptr<const EmlDevice> deviceFor(const Circuit &circuit) const;

    /**
     * Compile and evaluate (see ICompilerBackend). With a delta
     * exchange and MusstiConfig::deltaCompile on, the scheduling pass
     * tries to resume from the candidates and captures checkpoints per
     * MusstiConfig::deltaCheckpointGates; a control is checkpointed at
     * every pass boundary and every JobControl::kCheckEveryGates routing
     * steps of each scheduler leg.
     */
    CompileResult compile(const Circuit &circuit,
                          const CompileOptions &options = {}) const override;

    const std::string &name() const override;

    std::uint64_t configDigest() const override;

    /** The pass sequence compile() runs (exposed for tests/tools). */
    PassPipeline makePipeline() const;

  private:
    MusstiConfig config_;
    PhysicalParams params_;
};

} // namespace mussti

#endif // MUSSTI_CORE_COMPILER_H
