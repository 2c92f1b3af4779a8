/**
 * @file
 * A compiled schedule: the op stream plus the initial placement snapshot
 * the evaluator and the schedule linter replay from.
 */
#ifndef MUSSTI_SIM_SCHEDULE_H
#define MUSSTI_SIM_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "arch/placement.h"
#include "sim/op.h"

namespace mussti {

/**
 * The ops of one schedule, stored 16 bytes each (PackedOp). An op's
 * (durationUs, nbar) pair lives once in a per-schedule cost table and
 * the op keeps its index; a schedule uses a handful of distinct pairs
 * (one per op kind, plus one per distinct move distance), so the table
 * stays tiny. Reads decode: `ops[i]` and iteration yield ScheduledOp
 * values, so readers keep the wide spelling (`op.durationUs`).
 *
 * Pairs are interned by bit pattern through an open-addressed index:
 * O(1) per push. After reserve(), pushing allocates nothing until the
 * op capacity or kReservedCosts distinct pairs are exceeded.
 */
class OpStream
{
  public:
    /** Distinct cost pairs a schedule may hold (uint16 indices). */
    static constexpr std::size_t kMaxCosts = 0xFFFF;

    /** Distinct cost pairs reserve() makes room for. */
    static constexpr std::size_t kReservedCosts = 32;

    /**
     * Decoding iterator. It yields values, not references, so it is an
     * input iterator; `+` and `-` still step and measure in O(1).
     */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = ScheduledOp;
        using difference_type = std::ptrdiff_t;
        using reference = ScheduledOp;
        using pointer = void;

        const_iterator() = default;
        const_iterator(const OpStream *stream, std::size_t index)
            : stream_(stream), index_(index)
        {}

        ScheduledOp operator*() const { return (*stream_)[index_]; }
        const_iterator &operator++() { ++index_; return *this; }
        const_iterator
        operator+(difference_type n) const
        {
            return const_iterator(stream_, index_ + n);
        }
        difference_type
        operator-(const const_iterator &other) const
        {
            return static_cast<difference_type>(index_) -
                   static_cast<difference_type>(other.index_);
        }
        bool
        operator==(const const_iterator &other) const
        {
            return index_ == other.index_;
        }

      private:
        const OpStream *stream_ = nullptr;
        std::size_t index_ = 0;
    };

    std::size_t size() const { return packed_.size(); }
    bool empty() const { return packed_.empty(); }

    /** Decode op `i`. */
    ScheduledOp
    operator[](std::size_t i) const
    {
        const PackedOp &p = packed_[i];
        const OpCost &cost = costs_[p.cost];
        ScheduledOp op;
        op.kind = static_cast<OpKind>(p.kind);
        op.q0 = p.q0;
        op.q1 = p.q1;
        op.zoneFrom = p.zoneFrom;
        op.zoneTo = p.zoneTo;
        op.durationUs = cost.durationUs;
        op.nbar = cost.nbar;
        op.circuitGate = p.circuitGate;
        op.inserted = (p.flags & PackedOp::kInserted) != 0;
        op.enterFront = (p.flags & PackedOp::kEnterFront) != 0;
        return op;
    }

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size()); }

    /** Append an op (Schedule::push also keeps the counters). */
    void push_back(const ScheduledOp &op) { packed_.push_back(pack(op)); }

    /** Overwrite op `i`. */
    void set(std::size_t i, const ScheduledOp &op) { packed_[i] = pack(op); }

    /** Insert `op` before op `i`. */
    void insert(std::size_t i, const ScheduledOp &op);

    /** Remove op `i`. */
    void erase(std::size_t i);

    /**
     * Room for `ops` ops and kReservedCosts cost pairs, so the pushes
     * of a scheduling loop allocate nothing.
     */
    void reserve(std::size_t ops);

    /** Drop unused op and table capacity (a full copy when any). */
    void shrink_to_fit();

    /** Heap bytes held: the packed ops, the cost table and its index. */
    std::size_t bytes() const;

    /** The stored ops and the cost table they index (serialisation). */
    const std::vector<PackedOp> &packed() const { return packed_; }
    const std::vector<OpCost> &costs() const { return costs_; }

    /**
     * Rebuild a stream from stored ops and their table, or nullopt when
     * they do not form one: a cost index past the table, a repeated
     * table entry, an unknown kind or flag bit.
     */
    static std::optional<OpStream> fromPacked(std::vector<PackedOp> packed,
                                              std::vector<OpCost> costs);

  private:
    PackedOp pack(const ScheduledOp &op);
    std::uint16_t intern(double duration_us, double nbar);
    void rehash(std::size_t slots);

    std::vector<PackedOp> packed_;
    std::vector<OpCost> costs_;
    /** Open-addressed index over costs_: a table index or kEmptySlot. */
    std::vector<std::uint16_t> slots_;
};

/**
 * The output of a compiler pass. `initialChains` freezes the starting
 * chain order per zone (index = zone id); replaying `ops` from it
 * reconstructs placement at every point of the schedule.
 */
struct Schedule
{
    std::vector<std::vector<int>> initialChains;
    OpStream ops;

    int shuttleCount = 0;    ///< Completed relocations (per-hop on grids).
    int ionSwapCount = 0;    ///< In-trap reorder swaps.
    int insertedSwapGates = 0; ///< Logical SWAPs added by SWAP insertion.

    /** Append an op, maintaining the counters. */
    void push(const ScheduledOp &op);

    /**
     * Account additional shuttles beyond the Merge count. Grid devices
     * count one shuttle per junction hop (as in the Murali et al.
     * simulator), but a multi-hop relocation is emitted as one physical
     * Split/Move/Merge triple; the extra hops are booked here.
     */
    void addExtraShuttles(int count) { shuttleCount += count; }

    /** Snapshot a placement into initialChains. */
    static std::vector<std::vector<int>>
    snapshotChains(const Placement &placement);

    /** Rebuild a Placement positioned at the schedule start. */
    Placement initialPlacement(int num_qubits) const;

    /** Serial duration: the sum of every op's duration. */
    double serialDurationUs() const;
};

} // namespace mussti

#endif // MUSSTI_SIM_SCHEDULE_H
