/**
 * @file
 * Bounded-recency map: the one LRU behind the compile service's result
 * and snapshot caches.
 *
 * An LruMap keeps its entries in use order. find() counts as a use and
 * moves the entry to the front; contains() only asks. The map has no
 * capacity of its own — callers bound it by calling popOldest() until
 * size() fits, so each cache keeps its own eviction accounting (and,
 * for the snapshot tier, its index bookkeeping) next to the pop.
 *
 * Not synchronised: every cache that owns one guards it with its own
 * mutex.
 */
#ifndef MUSSTI_COMMON_LRU_MAP_H
#define MUSSTI_COMMON_LRU_MAP_H

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace mussti {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap
{
  public:
    /** The value under `key`, now the most recent; null if absent. */
    Value *
    find(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** Whether `key` is present; leaves its recency alone. */
    bool contains(const Key &key) const { return index_.count(key) != 0; }

    /**
     * Add `key` as the most recent entry. A present key keeps its
     * incumbent value and recency; returns whether it was inserted.
     */
    bool
    insert(const Key &key, Value value)
    {
        if (contains(key))
            return false;
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
        return true;
    }

    /** Remove and return the least recently used entry (non-empty). */
    std::pair<Key, Value>
    popOldest()
    {
        MUSSTI_ASSERT(!order_.empty(), "popOldest on an empty LruMap");
        std::pair<Key, Value> oldest = std::move(order_.back());
        index_.erase(oldest.first);
        order_.pop_back();
        return oldest;
    }

    void
    clear()
    {
        index_.clear();
        order_.clear();
    }

    std::size_t size() const { return index_.size(); }
    bool empty() const { return index_.empty(); }

  private:
    using Order = std::list<std::pair<Key, Value>>;

    Order order_; ///< Front = most recently used.
    std::unordered_map<Key, typename Order::iterator, Hash> index_;
};

} // namespace mussti

#endif // MUSSTI_COMMON_LRU_MAP_H
