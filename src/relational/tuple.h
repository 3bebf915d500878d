/// \file tuple.h
/// Fixed-capacity tuples of universe elements.
///
/// A tuple is a point in {0..n-1}^a for a relation of arity `a`. The library
/// caps arity at Tuple::kMaxArity (4): every construction in the paper uses
/// auxiliary relations of arity at most 3 (PV in Theorem 4.1), and the cap
/// lets tuples live inline with no heap traffic on the hot evaluation paths.

#ifndef DYNFO_RELATIONAL_TUPLE_H_
#define DYNFO_RELATIONAL_TUPLE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "core/check.h"

namespace dynfo::relational {

/// A universe element. Universes are {0, 1, ..., n-1} with n < 2^32.
using Element = uint32_t;

/// An immutable-by-convention, inline tuple of at most kMaxArity elements.
class Tuple {
 public:
  static constexpr int kMaxArity = 4;

  Tuple() : size_(0), data_{} {}

  Tuple(std::initializer_list<Element> elements) : size_(0), data_{} {
    DYNFO_CHECK(elements.size() <= kMaxArity) << "tuple arity above kMaxArity";
    for (Element e : elements) data_[size_++] = e;
  }

  /// Builds a tuple from `size` elements starting at `data`.
  static Tuple FromSpan(const Element* data, int size) {
    DYNFO_CHECK(size >= 0 && size <= kMaxArity);
    Tuple t;
    t.size_ = static_cast<uint8_t>(size);
    for (int i = 0; i < size; ++i) t.data_[i] = data[i];
    return t;
  }

  int size() const { return size_; }

  Element operator[](int i) const {
    DYNFO_CHECK(i >= 0 && i < size_);
    return data_[i];
  }

  /// Appends an element, returning the extended tuple.
  Tuple Append(Element e) const {
    DYNFO_CHECK(size_ < kMaxArity);
    Tuple t = *this;
    t.data_[t.size_++] = e;
    return t;
  }

  /// Concatenates two tuples.
  Tuple Concat(const Tuple& other) const {
    DYNFO_CHECK(size_ + other.size_ <= kMaxArity);
    Tuple t = *this;
    for (int i = 0; i < other.size_; ++i) t.data_[t.size_++] = other.data_[i];
    return t;
  }

  /// Projects onto the given index positions (in order, duplicates allowed).
  Tuple Project(std::initializer_list<int> positions) const {
    Tuple t;
    for (int p : positions) t = t.Append((*this)[p]);
    return t;
  }

  bool operator==(const Tuple& other) const {
    return size_ == other.size_ && data_ == other.data_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  /// Lexicographic order (shorter tuples first); used for deterministic output.
  bool operator<(const Tuple& other) const {
    if (size_ != other.size_) return size_ < other.size_;
    for (int i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return data_[i] < other.data_[i];
    }
    return false;
  }

  /// E.g. "(3, 1, 4)".
  std::string ToString() const {
    std::string s = "(";
    for (int i = 0; i < size_; ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(data_[i]);
    }
    s += ")";
    return s;
  }

  /// 64-bit hash suitable for unordered containers.
  uint64_t Hash() const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ size_;
    // The redundant kMaxArity bound proves the loop stays inside data_;
    // without it GCC 12 at -O3 cannot bound size_, assumes reads past the
    // array (into an enclosing iterator's padding) and warns
    // maybe-uninitialized.
    for (int i = 0; i < size_ && i < kMaxArity; ++i) {
      h ^= data_[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    return h;
  }

 private:
  uint8_t size_;
  /// Elements at positions >= size_ are always zero, so equality can
  /// compare whole arrays.
  std::array<Element, kMaxArity> data_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return static_cast<size_t>(t.Hash()); }
};

}  // namespace dynfo::relational

#endif  // DYNFO_RELATIONAL_TUPLE_H_
