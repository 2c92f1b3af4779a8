/**
 * @file
 * Baseline: look-ahead shuttle strategy after Dai et al., "Advanced
 * Shuttle Strategies for Parallel QCCD Architectures" (IEEE TQE 2024)
 * — reference [13] of the paper.
 *
 * Strategy: for the FCFS frontier gate, candidate meeting traps are
 * costed by immediate hops plus a discounted estimate of the distance
 * to the operands' future partners within a look-ahead window, and by a
 * congestion penalty for nearly-full traps. This anticipates upcoming
 * communication and reduces shuttle counts versus the greedy baseline.
 *
 * The look-ahead reads the DAG's incremental window (built with horizon
 * = the look-ahead) rather than peeling layers per step: a qubit's
 * gates inside the window are a prefix of its dependency chain, one
 * gate per layer, so the future cost walks that prefix and weighs each
 * gate by 0.7^layer.
 */
#ifndef MUSSTI_BASELINES_DAI_H
#define MUSSTI_BASELINES_DAI_H

#include <vector>

#include "baselines/grid_compiler_base.h"

namespace mussti {

/** Look-ahead weighted shuttling (reference [13]). */
class DaiCompiler : public GridCompilerBase
{
  public:
    /**
     * `look_ahead` = DAG layers scanned for future partners; <= 0
     * scans none (zero future cost).
     */
    DaiCompiler(const GridConfig &grid, const PhysicalParams &params,
                int look_ahead = 6);

  protected:
    void scheduleStep(Pass &pass) const override;
    void hashConfigExtra(Fnv1a &hash) const override;
    int windowHorizon() const override;

    /**
     * Discounted future-partner distance if `qubit` were in `trap`:
     * the sum, over the qubit's unfinished gates in the first
     * look-ahead layers, of 0.7^layer times the hops to the partner's
     * trap.
     */
    double futureCost(const Pass &pass, int qubit, int trap) const;

  private:
    int lookAhead_;
    std::vector<double> discount_; ///< 0.7^layer, by repeated *= 0.7.
};

} // namespace mussti

#endif // MUSSTI_BASELINES_DAI_H
