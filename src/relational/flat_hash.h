// The flat hash index every hash kernel is built on.
//
// GROUP BY, JOIN, INTERSECT, DIFFERENCE and DISTINCT all resolve "which
// earlier row has the same key as this one" through one structure,
// FlatMap64: an open-addressing table (one contiguous slot array, power-of-
// two capacity, linear probing, splitmix64 mixing) from a 64-bit key to a
// dense id, presized by the caller from the input's row count so that it
// never regrows inside a kernel. The 64-bit key is either
//
//   * exact — the canonical image of a single numeric cell (int64 bits, or a
//     double's bits with -0.0 folded onto +0.0), where equal keys mean equal
//     cells and no row comparison is needed; or
//   * a hash — the kernel row hash over any other key (several columns, a
//     string, a DOUBLE group column), where distinct keys can collide. Ids
//     sharing a hash are chained, and the caller's `same(id)` predicate
//     supplies row equality.
//
// These tables are kernel-internal: no output depends on where a key lands
// in them, only on the ids they hand out (dense, in insertion order) and on
// the equality the caller supplies. They never decide a shuffle bucket —
// that is Column::HashAt's job, and its values are frozen by the engine-
// shuffle determinism contract.

#ifndef MUSKETEER_SRC_RELATIONAL_FLAT_HASH_H_
#define MUSKETEER_SRC_RELATIONAL_FLAT_HASH_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace musketeer {

// Finalizer-style 64-bit mixer (splitmix64's): cheap, no branches, good
// avalanche — quality only affects probe lengths, never output bits.
inline uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Canonical 64-bit key of a double: the bit pattern with -0.0 folded onto
// +0.0 (they compare equal, so they must collide). NaN has no canonical key
// — NaN never equals anything, so exact-key callers must route NaN cells
// around the index (see KeyIsNaN); giving NaN a bit-pattern key would make
// NaN probe rows match NaN build rows, which the Value semantics forbid.
inline uint64_t CanonicalDoubleKey(double v) {
  if (v == 0.0) {
    v = 0.0;  // collapse -0.0
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline bool KeyIsNaN(double v) { return v != v; }

// Hash index from 64-bit keys to dense ids 0..size()-1, handed out in
// insertion order. Clear it (or construct it) with an upper bound on the
// ids it will hand out before use; the table then stays at most 50% loaded
// and never grows.
class FlatMap64 {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  FlatMap64() = default;
  explicit FlatMap64(size_t max_ids) { Clear(max_ids); }

  // Power-of-two slot count keeping `ids` ids at most 50% load.
  static size_t CapacityFor(size_t ids) {
    size_t cap = 16;
    while (cap < 2 * ids) cap <<= 1;
    return cap;
  }

  // Empties the index and sizes it for at most `max_ids` ids, reusing its
  // memory.
  void Clear(size_t max_ids) {
    slots_.assign(CapacityFor(max_ids), Slot{});
    next_.clear();
    next_.reserve(max_ids);
    max_ids_ = max_ids;
  }

  // Number of ids handed out.
  size_t size() const { return next_.size(); }

  // The id of `key` for which same(id) holds; when there is none, adds the
  // next id and sets *added. For exact keys `same` is constant true.
  template <typename Same>
  uint32_t FindOrAdd(uint64_t key, const Same& same, bool* added) {
    const size_t mask = slots_.size() - 1;
    size_t pos = MixHash64(key) & mask;
    while (slots_[pos].head != kNone) {
      if (slots_[pos].key == key) {
        for (uint32_t id = slots_[pos].head; id != kNone; id = next_[id]) {
          if (same(id)) {
            *added = false;
            return id;
          }
        }
        // A hash collision between unequal keys: chain the new id in front.
        const uint32_t id = NewId(slots_[pos].head);
        slots_[pos].head = id;
        *added = true;
        return id;
      }
      pos = (pos + 1) & mask;
    }
    const uint32_t id = NewId(kNone);
    slots_[pos].key = key;
    slots_[pos].head = id;
    *added = true;
    return id;
  }

  // The id of `key` for which same(id) holds, or kNone.
  template <typename Same>
  uint32_t Find(uint64_t key, const Same& same) const {
    const size_t mask = slots_.size() - 1;
    size_t pos = MixHash64(key) & mask;
    while (slots_[pos].head != kNone) {
      if (slots_[pos].key == key) {
        for (uint32_t id = slots_[pos].head; id != kNone; id = next_[id]) {
          if (same(id)) return id;
        }
        return kNone;
      }
      pos = (pos + 1) & mask;
    }
    return kNone;
  }

 private:
  // One slot per distinct key: the key and the newest id in its chain.
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNone;  // kNone marks a free slot
  };

  uint32_t NewId(uint32_t chained_to) {
    assert(next_.size() < max_ids_ && "FlatMap64 presized too small");
    next_.push_back(chained_to);
    return static_cast<uint32_t>(next_.size() - 1);
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;  // id → older id with the same key, or kNone
  size_t max_ids_ = 0;          // the presized bound on size()
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_FLAT_HASH_H_
