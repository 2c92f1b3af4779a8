#include "core/lru.h"

#include "common/logging.h"

namespace mussti {

LruTracker::LruTracker(int num_qubits) : stamps_(num_qubits, 0)
{
    MUSSTI_REQUIRE(num_qubits > 0, "LRU tracker needs qubits");
}

void
LruTracker::touch(int qubit)
{
    MUSSTI_ASSERT(qubit >= 0 &&
                  qubit < static_cast<int>(stamps_.size()),
                  "LRU touch out of range: " << qubit);
    stamps_[qubit] = ++clock_;
}

std::int64_t
LruTracker::stampOf(int qubit) const
{
    MUSSTI_ASSERT(qubit >= 0 &&
                  qubit < static_cast<int>(stamps_.size()),
                  "LRU stamp out of range: " << qubit);
    return stamps_[qubit];
}

int
LruTracker::victim(const ZoneChain &candidates, int keep0, int keep1) const
{
    int best = -1;
    std::int64_t best_stamp = 0;
    for (int q : candidates) {
        if (q == keep0 || q == keep1)
            continue;
        if (best < 0 || stamps_[q] < best_stamp) {
            best = q;
            best_stamp = stamps_[q];
        }
    }
    return best;
}

} // namespace mussti
