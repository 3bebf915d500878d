/// \file term.h
/// First-order terms over the paper's logic L(tau).
///
/// Terms are variables, vocabulary constant symbols, the numeric constants
/// min/max, numeric literals, or *request parameters*. Parameters are the
/// paper's `a`, `b` in "ins(E, a, b)": placeholders bound to the updated
/// tuple's components when a Dyn-FO update formula runs.

#ifndef DYNFO_FO_TERM_H_
#define DYNFO_FO_TERM_H_

#include <string>

#include "core/check.h"
#include "relational/tuple.h"

namespace dynfo::fo {

enum class TermKind {
  kVariable,        ///< a first-order variable, identified by name
  kConstantSymbol,  ///< a constant symbol of the vocabulary
  kParameter,       ///< component i of the current request's tuple
  kMin,             ///< the numeric constant 0
  kMax,             ///< the numeric constant n-1
  kNumber,          ///< a fixed numeric literal (definable from min/BIT; convenience)
};

/// An immutable first-order term (a small value type).
class Term {
 public:
  static Term Var(std::string name) {
    DYNFO_CHECK(!name.empty());
    Term t(TermKind::kVariable);
    t.name_ = std::move(name);
    return t;
  }
  static Term Const(std::string name) {
    DYNFO_CHECK(!name.empty());
    Term t(TermKind::kConstantSymbol);
    t.name_ = std::move(name);
    return t;
  }
  static Term Param(int index) {
    DYNFO_CHECK(index >= 0 && index < relational::Tuple::kMaxArity);
    Term t(TermKind::kParameter);
    t.index_ = index;
    return t;
  }
  static Term Min() { return Term(TermKind::kMin); }
  static Term Max() { return Term(TermKind::kMax); }
  static Term Number(relational::Element value) {
    Term t(TermKind::kNumber);
    t.value_ = value;
    return t;
  }

  TermKind kind() const { return kind_; }

  /// Variable or constant-symbol name. CHECK-fails for other kinds.
  const std::string& name() const {
    DYNFO_CHECK(kind_ == TermKind::kVariable || kind_ == TermKind::kConstantSymbol);
    return name_;
  }

  /// Parameter index. CHECK-fails unless kind() == kParameter.
  int index() const {
    DYNFO_CHECK(kind_ == TermKind::kParameter);
    return index_;
  }

  /// Literal value. CHECK-fails unless kind() == kNumber.
  relational::Element value() const {
    DYNFO_CHECK(kind_ == TermKind::kNumber);
    return value_;
  }

  bool is_variable() const { return kind_ == TermKind::kVariable; }

  bool operator==(const Term& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case TermKind::kVariable:
      case TermKind::kConstantSymbol:
        return name_ == other.name_;
      case TermKind::kParameter:
        return index_ == other.index_;
      case TermKind::kNumber:
        return value_ == other.value_;
      case TermKind::kMin:
      case TermKind::kMax:
        return true;
    }
    DYNFO_UNREACHABLE();
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  std::string ToString() const {
    switch (kind_) {
      case TermKind::kVariable:
      case TermKind::kConstantSymbol:
        return name_;
      case TermKind::kParameter:
        // Appending (not "$" + string) sidesteps a GCC 12 -O3 false
        // -Wrestrict in the inlined operator+.
        return std::string("$").append(std::to_string(index_));
      case TermKind::kMin:
        return "min";
      case TermKind::kMax:
        return "max";
      case TermKind::kNumber:
        return std::to_string(value_);
    }
    DYNFO_UNREACHABLE();
  }

 private:
  explicit Term(TermKind kind) : kind_(kind) {}

  TermKind kind_;
  std::string name_;
  int index_ = 0;
  relational::Element value_ = 0;
};

}  // namespace dynfo::fo

#endif  // DYNFO_FO_TERM_H_
