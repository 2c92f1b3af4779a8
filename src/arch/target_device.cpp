#include "arch/target_device.h"

#include <algorithm>
#include <deque>

#include "sim/op.h"

namespace mussti {

const char *
deviceFamilyName(DeviceFamily family)
{
    switch (family) {
      case DeviceFamily::Eml: return "eml";
      case DeviceFamily::Grid: return "grid";
    }
    panic("unknown device family");
}

void
TargetDevice::finalizeTopology(std::vector<ZoneInfo> zones,
                               const std::vector<std::pair<int, int>> &edges)
{
    MUSSTI_ASSERT(hopTable_.empty(), "finalizeTopology called twice");
    MUSSTI_ASSERT(!zones.empty(), "device has no zones");
    // The all-pairs hop table is O(zones^2) memory (4 KB at the paper's
    // scales, 16 MB at the cap below). Specs are user input, so refuse
    // topologies whose table would dwarf the compilation itself instead
    // of silently allocating gigabytes for a grid:256x256 typo. The cap
    // also keeps zone ids inside a schedule's int16 op fields.
    static_assert(2048 <= kMaxOpIndex);
    MUSSTI_REQUIRE(zones.size() <= 2048,
                   "device has " << zones.size() << " zones; the "
                   "precomputed adjacency/hop tables support at most "
                   "2048 — shrink the device spec");
    zones_ = std::move(zones);

    const int nz = numZones();
    numModules_ = 0;
    slotCount_ = 0;
    for (const ZoneInfo &info : zones_) {
        numModules_ = std::max(numModules_, info.module + 1);
        slotCount_ += info.capacity;
    }

    // CSR adjacency from the undirected edge list (counting pass, then
    // placement pass; neighbour order follows edge-list order so the
    // derived class controls determinism).
    std::vector<int> degree(nz, 0);
    for (const auto &[a, b] : edges) {
        MUSSTI_ASSERT(a >= 0 && a < nz && b >= 0 && b < nz && a != b,
                      "bad adjacency edge " << a << " -- " << b);
        ++degree[a];
        ++degree[b];
    }
    adjacencyOffsets_.assign(nz + 1, 0);
    for (int z = 0; z < nz; ++z)
        adjacencyOffsets_[z + 1] = adjacencyOffsets_[z] + degree[z];
    adjacency_.assign(adjacencyOffsets_[nz], -1);
    std::vector<int> cursor(adjacencyOffsets_.begin(),
                            adjacencyOffsets_.end() - 1);
    for (const auto &[a, b] : edges) {
        adjacency_[cursor[a]++] = b;
        adjacency_[cursor[b]++] = a;
    }

    // All-pairs hop distances: one BFS per source over the CSR lists.
    hopTable_.assign(static_cast<std::size_t>(nz) * nz, -1);
    std::deque<int> queue;
    for (int src = 0; src < nz; ++src) {
        int *row = hopTable_.data() + static_cast<std::size_t>(src) * nz;
        row[src] = 0;
        queue.clear();
        queue.push_back(src);
        while (!queue.empty()) {
            const int at = queue.front();
            queue.pop_front();
            for (int next : neighbors(at)) {
                if (row[next] < 0) {
                    row[next] = row[at] + 1;
                    queue.push_back(next);
                }
            }
        }
    }
}

} // namespace mussti
