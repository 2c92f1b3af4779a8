/**
 * @file
 * Monolithic QCCD grid device (paper Fig 1b), the substrate the baseline
 * compilers [55], [13], [70] run on. W x H traps connected through an
 * X-junction lattice; every trap is gate-capable; ions shuttle hop by hop
 * between 4-neighbours.
 *
 * Adjacency and hop distances come from the TargetDevice base:
 * neighbors() is an index view into the shared CSR lists and
 * hopDistance() is an O(1) table lookup (BFS over the lattice equals
 * the Manhattan metric), so the baselines' relocation inner loops never
 * recompute row/column arithmetic.
 */
#ifndef MUSSTI_ARCH_GRID_DEVICE_H
#define MUSSTI_ARCH_GRID_DEVICE_H

#include <string>
#include <vector>

#include "arch/target_device.h"
#include "arch/zone.h"

namespace mussti {

/** Construction parameters for a grid QCCD. */
struct GridConfig
{
    int width = 2;            ///< Traps per row.
    int height = 2;           ///< Rows.
    int trapCapacity = 16;    ///< Ions per trap.
    double pitchUm = 200.0;   ///< Trap center spacing.
};

/**
 * Canonical DeviceRegistry spec string of a grid config (the single
 * producer behind GridDevice::spec() and DeviceSpec::canonical()).
 */
std::string gridSpecString(const GridConfig &config);

/** Immutable grid topology; traps are zones with ZoneKind::Operation. */
class GridDevice : public TargetDevice
{
  public:
    explicit GridDevice(const GridConfig &config);

    const GridConfig &config() const { return config_; }
    int numTraps() const { return config_.width * config_.height; }
    int width() const { return config_.width; }
    int height() const { return config_.height; }

    /** Row/column of a trap. */
    int rowOf(int trap) const { return trap / config_.width; }
    int colOf(int trap) const { return trap % config_.width; }
    int trapAt(int row, int col) const { return row * config_.width + col; }

    /** The central trap (the MQT-style dedicated processing zone). */
    int centerTrap() const
    {
        return trapAt(config_.height / 2, config_.width / 2);
    }

    /**
     * Call visit(trap) along a shortest hop path from `from` to `to`,
     * excluding `from` and including `to`; row-first then column
     * (deterministic). Allocation-free.
     */
    template <typename Visit>
    void
    forEachPathTrap(int from, int to, Visit &&visit) const
    {
        int row = rowOf(from);
        int col = colOf(from);
        while (row != rowOf(to)) {
            row += rowOf(to) > row ? 1 : -1;
            visit(trapAt(row, col));
        }
        while (col != colOf(to)) {
            col += colOf(to) > col ? 1 : -1;
            visit(trapAt(row, col));
        }
    }

    std::string spec() const override;
    std::string describe() const override;

  private:
    GridConfig config_;
};

} // namespace mussti

#endif // MUSSTI_ARCH_GRID_DEVICE_H
