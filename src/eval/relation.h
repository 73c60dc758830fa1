#ifndef HORNSAFE_EVAL_RELATION_H_
#define HORNSAFE_EVAL_RELATION_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "lang/term.h"
#include "util/strings.h"

namespace hornsafe {

/// A tuple of ground terms (owning form; the evaluator mostly works
/// with non-owning `TupleView`s into a relation's arena).
using Tuple = std::vector<TermId>;

/// A non-owning view of a ground tuple: a span of `TermId`s living in
/// a relation arena, a `Tuple`, or a builtin's output buffer. Cheap to
/// copy; valid as long as the backing storage is.
class TupleView {
 public:
  TupleView() = default;
  TupleView(const TermId* data, size_t size) : data_(data), size_(size) {}
  // Implicit: lets `Tuple` flow into every TupleView parameter.
  TupleView(const Tuple& t) : data_(t.data()), size_(t.size()) {}

  const TermId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TermId operator[](size_t i) const { return data_[i]; }
  const TermId* begin() const { return data_; }
  const TermId* end() const { return data_ + size_; }

  /// Materialises an owning copy.
  Tuple ToTuple() const { return Tuple(data_, data_ + size_); }

  friend bool operator==(TupleView a, TupleView b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TupleView a, TupleView b) { return !(a == b); }

 private:
  const TermId* data_ = nullptr;
  size_t size_ = 0;
};

struct TupleHash {
  /// splitmix64 finalizer. Term ids are small consecutive integers and
  /// `std::hash` on integers is the identity; without strong per-element
  /// mixing the low bits cluster, which the power-of-two open-addressing
  /// table below (unlike a prime-modulus std::unordered_set) turns into
  /// long linear-probe chains.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  size_t operator()(TupleView t) const {
    size_t seed = Mix(t.size());
    for (TermId v : t) HashCombine(seed, Mix(v));
    return seed;
  }
};

/// A materialised finite relation: a set of ground tuples in insertion
/// order, with lazily built per-column indexes for join probes.
///
/// Storage is a contiguous arena (`std::vector<TermId>` slabs) plus an
/// open-addressing hash table keyed by arena offset, so inserting and
/// probing never allocate per tuple. Tuples get dense ids `0..size()`
/// in insertion order; `At(id)` views one in O(1).
///
/// Terms are hash-consed, so tuple equality is element-wise id
/// equality and a column index keys directly on `TermId` — this covers
/// compound ground terms too.
///
/// Thread safety: concurrent *reads* (Contains/Probe/ProbeCount/At/
/// iteration) are safe, including the first probe of a column — lazy
/// index construction publishes through an atomic and loser threads
/// discard their copy. Insert/clear require exclusive access.
class Relation {
 public:
  /// Posting list of a column index: ids of the tuples whose indexed
  /// column holds one value, ascending (= insertion order).
  using PostingList = std::vector<uint32_t>;

  Relation() = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// Inserts `t`; returns true iff it was new. Maintains any indexes
  /// already built. Not thread-safe.
  bool Insert(TupleView t) {
    size_t hash = TupleHash{}(t);
    if (table_.empty()) Rehash(kInitialBuckets);
    size_t slot = FindSlot(t, hash);
    if (table_[slot] != kEmptySlot) return false;
    uint32_t id = static_cast<uint32_t>(size());
    arena_.insert(arena_.end(), t.begin(), t.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    hashes_.push_back(hash);
    table_[slot] = id;
    if ((size() + 1) * 10 > table_.size() * 7) Rehash(table_.size() * 2);
    // Keep one index slot per column of the widest tuple. Growing here
    // (under exclusive access) is what lets concurrent probes read the
    // slot vector without locking.
    while (col_indexes_.size() < t.size()) {
      col_indexes_.push_back(std::make_unique<IndexSlot>());
    }
    for (size_t col = 0; col < t.size(); ++col) {
      ColumnIndex* index =
          col_indexes_[col]->ptr.load(std::memory_order_relaxed);
      if (index != nullptr) (*index)[t[col]].push_back(id);
    }
    return true;
  }

  bool Contains(TupleView t) const {
    if (table_.empty()) return false;
    return table_[FindSlot(t, TupleHash{}(t))] != kEmptySlot;
  }

  // Braced-literal conveniences (`Insert({1, 2})`); the list only
  // needs to live for the duration of the call.
  bool Insert(std::initializer_list<TermId> il) {
    return Insert(TupleView(il.begin(), il.size()));
  }
  bool Contains(std::initializer_list<TermId> il) const {
    return Contains(TupleView(il.begin(), il.size()));
  }

  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  void clear() {
    arena_.clear();
    offsets_.assign(1, 0);
    hashes_.clear();
    table_.clear();
    col_indexes_.clear();
  }

  /// The tuple with dense id `id` (ids follow insertion order).
  TupleView At(uint32_t id) const {
    return TupleView(arena_.data() + offsets_[id],
                     offsets_[id + 1] - offsets_[id]);
  }

  /// Ids of the tuples whose column `col` holds exactly `value`,
  /// ascending. Builds the column index on first use (O(size)); later
  /// probes are O(1) + output.
  const PostingList& Probe(uint32_t col, TermId value) const {
    static const PostingList kEmpty;
    const ColumnIndex* index = EnsureIndex(col);
    if (index == nullptr) return kEmpty;
    auto hit = index->find(value);
    return hit == index->end() ? kEmpty : hit->second;
  }

  /// Number of tuples whose column `col` holds `value` — the
  /// selectivity oracle for join-column choice. Same lazy-build cost
  /// as `Probe`.
  size_t ProbeCount(uint32_t col, TermId value) const {
    return Probe(col, value).size();
  }

  /// Iterates tuples in insertion order, yielding `TupleView`s.
  class const_iterator {
   public:
    const_iterator(const Relation* rel, uint32_t id) : rel_(rel), id_(id) {}
    TupleView operator*() const { return rel_->At(id_); }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return id_ != o.id_; }
    bool operator==(const const_iterator& o) const { return id_ == o.id_; }

   private:
    const Relation* rel_;
    uint32_t id_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<uint32_t>(size()));
  }

 private:
  using ColumnIndex = std::unordered_map<TermId, PostingList>;

  /// One lazily built column index behind an atomic pointer, so the
  /// first concurrent probes of a column race benignly: every builder
  /// compare-exchanges its candidate and losers delete theirs.
  struct IndexSlot {
    std::atomic<ColumnIndex*> ptr{nullptr};
    ~IndexSlot() { delete ptr.load(std::memory_order_acquire); }
  };

  static constexpr uint32_t kEmptySlot = static_cast<uint32_t>(-1);
  static constexpr size_t kInitialBuckets = 16;

  /// Linear probe: the slot holding an equal tuple, or the empty slot
  /// where it would go. `table_` must be non-empty.
  size_t FindSlot(TupleView t, size_t hash) const {
    size_t mask = table_.size() - 1;
    size_t slot = hash & mask;
    while (true) {
      uint32_t id = table_[slot];
      if (id == kEmptySlot) return slot;
      if (hashes_[id] == hash && At(id) == t) return slot;
      slot = (slot + 1) & mask;
    }
  }

  void Rehash(size_t new_buckets) {
    table_.assign(new_buckets, kEmptySlot);
    size_t mask = new_buckets - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t slot = hashes_[id] & mask;
      while (table_[slot] != kEmptySlot) slot = (slot + 1) & mask;
      table_[slot] = id;
    }
  }

  const ColumnIndex* EnsureIndex(uint32_t col) const {
    // Insert keeps `col_indexes_` sized to the widest tuple, so an
    // out-of-range column has no matching tuples at all.
    if (col >= col_indexes_.size()) return nullptr;
    IndexSlot& slot = *col_indexes_[col];
    ColumnIndex* index = slot.ptr.load(std::memory_order_acquire);
    if (index != nullptr) return index;
    auto built = std::make_unique<ColumnIndex>();
    for (uint32_t id = 0; id < size(); ++id) {
      TupleView t = At(id);
      if (col < t.size()) (*built)[t[col]].push_back(id);
    }
    ColumnIndex* expected = nullptr;
    if (slot.ptr.compare_exchange_strong(expected, built.get(),
                                         std::memory_order_acq_rel)) {
      return built.release();
    }
    return expected;  // another thread won; ours is discarded
  }

  /// Flat tuple storage: tuple `i` spans
  /// `arena_[offsets_[i], offsets_[i+1])`.
  std::vector<TermId> arena_;
  std::vector<uint32_t> offsets_{0};
  /// Cached content hash per tuple (rehash + fast compare).
  std::vector<size_t> hashes_;
  /// Open-addressing table of tuple ids (power-of-two size).
  std::vector<uint32_t> table_;
  /// Built lazily by Probe; mutable because probing is logically
  /// const. unique_ptr keeps slots stable and the Relation movable.
  mutable std::vector<std::unique_ptr<IndexSlot>> col_indexes_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_EVAL_RELATION_H_
