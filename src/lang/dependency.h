#ifndef HORNSAFE_LANG_DEPENDENCY_H_
#define HORNSAFE_LANG_DEPENDENCY_H_

#include <cstdint>

#include "lang/attr_set.h"
#include "lang/literal.h"
#include "lang/source_span.h"

namespace hornsafe {

/// A finiteness dependency `lhs ⇝ rhs` over predicate `pred` (paper,
/// Section 1): in every legal instance, if the projection of the relation
/// onto `lhs` is finite then its projection onto `rhs` is finite.
///
/// This is strictly weaker than a functional dependency and holds
/// trivially on every finite relation. Attribute positions are 0-based
/// here; the paper's prose is 1-based (printing converts).
struct FiniteDependency {
  PredicateId pred = kInvalidPredicate;
  AttrSet lhs;
  AttrSet rhs;
  /// Position of the `.fd` directive (0 = built programmatically).
  /// Metadata only: excluded from equality and structural hashes.
  SourceSpan span{};

  bool operator==(const FiniteDependency& o) const {
    return pred == o.pred && lhs == o.lhs && rhs == o.rhs;
  }
};

/// The two shapes of monotonicity constraint from Section 4 of the paper:
/// attribute-vs-attribute (`rᵢ > rⱼ` in every tuple) and
/// attribute-vs-constant (`rᵢ > c` or `rᵢ < c` in every tuple).
enum class MonoKind : uint8_t {
  /// attrs: lhs_attr > rhs_attr in every tuple.
  kAttrGreaterAttr,
  /// lhs_attr > bound in every tuple (the attribute is bounded below).
  kAttrGreaterConst,
  /// lhs_attr < bound in every tuple (the attribute is bounded above).
  kAttrLessConst,
};

/// A monotonicity constraint over predicate `pred` (paper, Section 4).
/// Values are assumed drawn from a domain with a partial order in which
/// every interval bounded on both sides is finite (e.g. the integers) —
/// that is what makes "decreasing and bounded below" imply finitely many
/// traversals.
struct MonotonicityConstraint {
  PredicateId pred = kInvalidPredicate;
  MonoKind kind = MonoKind::kAttrGreaterAttr;
  /// 0-based position of the left attribute.
  uint32_t lhs_attr = 0;
  /// 0-based position of the right attribute (kAttrGreaterAttr only).
  uint32_t rhs_attr = 0;
  /// Constant bound (const forms only).
  int64_t bound = 0;
  /// Position of the `.mono` directive (0 = built programmatically).
  /// Metadata only: excluded from equality and structural hashes.
  SourceSpan span{};

  bool operator==(const MonotonicityConstraint& o) const {
    return pred == o.pred && kind == o.kind && lhs_attr == o.lhs_attr &&
           rhs_attr == o.rhs_attr && bound == o.bound;
  }
};

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_DEPENDENCY_H_
