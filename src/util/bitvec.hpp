// Packed bit vector and an epoch-stamped node-set.
//
// BitVec backs syndrome tables (hundreds of millions of bits).
// StampSet gives O(1) clear between repeated algorithm runs over the same
// graph (traversals, injectors, baselines). DirtyBitset clears only the
// words it dirtied; Set_Builder keeps its membership sets in those, and with
// its frontier-window scan a restricted probe of a contiguous component
// costs O(Δ·|U_r|) rather than O(N).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace mmdiag {

/// Fixed-size packed vector of bits.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::uint64_t n, bool value = false)
      : size_(n), words_((n + 63) / 64, value ? ~0ULL : 0ULL) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  [[nodiscard]] bool get(std::uint64_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::uint64_t i) noexcept { words_[i >> 6] |= 1ULL << (i & 63); }
  void reset(std::uint64_t i) noexcept { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  void assign(std::uint64_t i, bool v) noexcept {
    if (v) {
      set(i);
    } else {
      reset(i);
    }
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Word-level read: the `len` (1..64) bits starting at bit `start`,
  /// packed little-endian into the low bits of the result. At most two
  /// word loads, so a whole syndrome row costs what one get() used to.
  /// Requires 1 <= len <= 64 and start + len <= size(): both shift
  /// amounts below are then provably < 64 (off != 0 guards the second
  /// shift, len < 64 guards the mask), so no shift-by-width UB path
  /// exists, and the w + 1 load only happens when that word holds bits
  /// the caller asked for.
  [[nodiscard]] std::uint64_t extract(std::uint64_t start, unsigned len) const noexcept {
    assert(len >= 1 && len <= 64 && "extract: len out of [1, 64]");
    assert(start + len <= size_ && "extract: range past the end");
    const std::uint64_t w = start >> 6;
    const unsigned off = static_cast<unsigned>(start & 63);
    std::uint64_t bits = words_[w] >> off;
    if (off != 0 && w + 1 < words_.size()) {
      bits |= words_[w + 1] << (64 - off);
    }
    if (len < 64) bits &= (std::uint64_t{1} << len) - 1;
    return bits;
  }

  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Bytes of heap storage (used by memory accounting in benches).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// In-place 64×64 bit-matrix transpose: on return, bit c of a[r] is the
/// old bit r of a[c]. The recursive block-swap runs 6 stages of masked
/// exchanges (Hacker's Delight 7-3) — a few hundred register ops for all
/// 4096 bits, which is what makes gathering one syndrome row per cohort
/// lane and flipping it into lane-major words cheaper than 64 scalar row
/// walks (see BitSlicedOracle).
inline void transpose64(std::uint64_t a[64]) noexcept {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k + j] ^= t;
      a[k] ^= t << j;
    }
  }
}

/// A node set packed one bit per element — 512 bytes per 4096 nodes, so
/// membership tests in hot loops stay L1-resident where a stamp array would
/// thrash (4 bytes per element). clear() zeroes only the words insert()
/// dirtied, so sparse uses (partition probes touching one component of a
/// huge graph) stay O(|set|), not O(n). Membership survives until the next
/// clear(), exactly like StampSet.
class DirtyBitset {
 public:
  DirtyBitset() = default;

  void resize(std::size_t n) {
    words_.assign((n + 63) / 64, 0u);
    dirty_.clear();
    dirty_.reserve(words_.size());
    all_dirty_ = false;
  }

  void clear() noexcept {
    if (all_dirty_) {
      std::fill(words_.begin(), words_.end(), 0u);
      all_dirty_ = false;
    } else {
      for (const std::uint32_t w : dirty_) words_[w] = 0;
    }
    dirty_.clear();
  }

  [[nodiscard]] bool contains(Node v) const noexcept {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

  /// Returns true if v was newly inserted.
  bool insert(Node v) noexcept {
    const std::uint32_t w = static_cast<std::uint32_t>(v >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    const std::uint64_t word = words_[w];
    if (word & bit) return false;
    if (word == 0) dirty_.push_back(w);
    words_[w] = word | bit;
    return true;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return words_.size() * 64;
  }

  /// The packed words, bit v & 63 of word v >> 6 = contains(v); bits past
  /// the resized length are always clear.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// The same words for a writer that sets bits a word at a time (from
  /// several threads, each owning its words or updating atomically):
  /// every word then counts as dirtied, and the next clear() zeroes them
  /// all. Bits past the resized length must stay clear.
  [[nodiscard]] std::span<std::uint64_t> bulk_words() noexcept {
    all_dirty_ = true;
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> dirty_;  // indices of nonzero words
  bool all_dirty_ = false;            // bulk_words() handed out since clear()
};

/// A set over [0, n) supporting O(1) insert/lookup and O(1) bulk clear via
/// epoch stamps. Membership survives only until the next clear().
class StampSet {
 public:
  StampSet() = default;
  explicit StampSet(std::size_t n) : stamp_(n, 0) {}

  void resize(std::size_t n) {
    stamp_.assign(n, 0);
    epoch_ = 1;
  }

  void clear() noexcept {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: do the rare O(n) reset
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool contains(Node v) const noexcept { return stamp_[v] == epoch_; }

  /// Returns true if v was newly inserted.
  bool insert(Node v) noexcept {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

}  // namespace mmdiag
