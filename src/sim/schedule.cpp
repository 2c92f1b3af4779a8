#include "sim/schedule.h"

#include <cstring>
#include <string>

#include "common/logging.h"

namespace mussti {

namespace {

constexpr std::uint16_t kEmptySlot = 0xFFFF;

/** Index slots a fresh table starts with (half may fill). */
constexpr std::size_t kInitialSlots = 2 * OpStream::kReservedCosts;

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

std::size_t
slotHash(std::uint64_t duration_bits, std::uint64_t nbar_bits)
{
    std::uint64_t h = (duration_bits ^ (nbar_bits * 0x9E3779B97F4A7C15ull)) *
                      0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
}

bool
fitsIndex(int value)
{
    return value >= -1 && value <= kMaxOpIndex;
}

} // namespace

PackedOp
OpStream::pack(const ScheduledOp &op)
{
    MUSSTI_REQUIRE(fitsIndex(op.q0) && fitsIndex(op.q1) &&
                       fitsIndex(op.zoneFrom) && fitsIndex(op.zoneTo),
                   "op " << op.describe() << " has a qubit or zone index "
                   "outside -1.." << kMaxOpIndex);
    PackedOp p;
    p.circuitGate = op.circuitGate;
    p.q0 = static_cast<std::int16_t>(op.q0);
    p.q1 = static_cast<std::int16_t>(op.q1);
    p.zoneFrom = static_cast<std::int16_t>(op.zoneFrom);
    p.zoneTo = static_cast<std::int16_t>(op.zoneTo);
    p.cost = intern(op.durationUs, op.nbar);
    p.kind = static_cast<std::uint8_t>(op.kind);
    p.flags = static_cast<std::uint8_t>(
        (op.inserted ? PackedOp::kInserted : 0) |
        (op.enterFront ? PackedOp::kEnterFront : 0));
    return p;
}

std::uint16_t
OpStream::intern(double duration_us, double nbar)
{
    const std::uint64_t d = bitsOf(duration_us);
    const std::uint64_t n = bitsOf(nbar);
    if (slots_.empty())
        slots_.assign(kInitialSlots, kEmptySlot);
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = slotHash(d, n) & mask;
    for (; slots_[s] != kEmptySlot; s = (s + 1) & mask) {
        const OpCost &cost = costs_[slots_[s]];
        if (bitsOf(cost.durationUs) == d && bitsOf(cost.nbar) == n)
            return slots_[s];
    }
    if (costs_.size() >= kMaxCosts)
        raiseError(ErrorCategory::ResourceExhausted,
                   "resource.op-cost-table",
                   "schedule uses more than " + std::to_string(kMaxCosts) +
                       " distinct (duration, nbar) op costs");
    const auto index = static_cast<std::uint16_t>(costs_.size());
    costs_.push_back({duration_us, nbar});
    slots_[s] = index;
    if (2 * costs_.size() > slots_.size())
        rehash(2 * slots_.size());
    return index;
}

void
OpStream::rehash(std::size_t slots)
{
    slots_.assign(slots, kEmptySlot);
    const std::size_t mask = slots - 1;
    for (std::size_t i = 0; i < costs_.size(); ++i) {
        std::size_t s = slotHash(bitsOf(costs_[i].durationUs),
                                 bitsOf(costs_[i].nbar)) & mask;
        while (slots_[s] != kEmptySlot)
            s = (s + 1) & mask;
        slots_[s] = static_cast<std::uint16_t>(i);
    }
}

void
OpStream::insert(std::size_t i, const ScheduledOp &op)
{
    const PackedOp p = pack(op);
    packed_.insert(packed_.begin() + static_cast<std::ptrdiff_t>(i), p);
}

void
OpStream::erase(std::size_t i)
{
    packed_.erase(packed_.begin() + static_cast<std::ptrdiff_t>(i));
}

void
OpStream::reserve(std::size_t ops)
{
    packed_.reserve(ops);
    costs_.reserve(kReservedCosts);
    if (slots_.empty())
        slots_.assign(kInitialSlots, kEmptySlot);
}

void
OpStream::shrink_to_fit()
{
    packed_.shrink_to_fit();
    costs_.shrink_to_fit();
}

std::size_t
OpStream::bytes() const
{
    return packed_.capacity() * sizeof(PackedOp) +
           costs_.capacity() * sizeof(OpCost) +
           slots_.capacity() * sizeof(std::uint16_t);
}

std::optional<OpStream>
OpStream::fromPacked(std::vector<PackedOp> packed, std::vector<OpCost> costs)
{
    if (costs.size() > kMaxCosts)
        return std::nullopt;
    OpStream out;
    out.costs_.reserve(costs.size());
    for (std::size_t i = 0; i < costs.size(); ++i) {
        if (out.intern(costs[i].durationUs, costs[i].nbar) != i)
            return std::nullopt;
    }
    constexpr auto kMaxKind = static_cast<std::uint8_t>(OpKind::FiberGate);
    for (const PackedOp &p : packed) {
        if (p.cost >= costs.size() || p.kind > kMaxKind ||
            (p.flags & ~(PackedOp::kInserted | PackedOp::kEnterFront)) != 0)
            return std::nullopt;
    }
    out.packed_ = std::move(packed);
    return out;
}

void
Schedule::push(const ScheduledOp &op)
{
    ops.push_back(op);
    if (op.kind == OpKind::Merge)
        ++shuttleCount;
    if (op.kind == OpKind::IonSwap)
        ++ionSwapCount;
}

std::vector<std::vector<int>>
Schedule::snapshotChains(const Placement &placement)
{
    std::vector<std::vector<int>> chains(placement.numZones());
    for (int z = 0; z < placement.numZones(); ++z)
        chains[z].assign(placement.chain(z).begin(),
                         placement.chain(z).end());
    return chains;
}

Placement
Schedule::initialPlacement(int num_qubits) const
{
    Placement placement(num_qubits,
                        static_cast<int>(initialChains.size()));
    for (std::size_t z = 0; z < initialChains.size(); ++z) {
        for (int q : initialChains[z])
            placement.insert(q, static_cast<int>(z), ChainEnd::Back);
    }
    return placement;
}

double
Schedule::serialDurationUs() const
{
    double total = 0.0;
    for (const auto &op : ops)
        total += op.durationUs;
    return total;
}

} // namespace mussti
