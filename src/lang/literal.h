#ifndef HORNSAFE_LANG_LITERAL_H_
#define HORNSAFE_LANG_LITERAL_H_

#include <cstdint>
#include <vector>

#include "lang/source_span.h"
#include "lang/term.h"

namespace hornsafe {

/// Dense identifier of a predicate (name + arity) inside a `Program`.
using PredicateId = uint32_t;

/// Sentinel for "no predicate".
inline constexpr PredicateId kInvalidPredicate = static_cast<PredicateId>(-1);

/// A literal: a predicate applied to a list of terms (paper, Section 1).
struct Literal {
  PredicateId pred = kInvalidPredicate;
  std::vector<TermId> args;
  /// Where the literal was parsed from, if it came from source text.
  /// Metadata only: excluded from equality and structural hashes. The
  /// default initializer lets `Literal{pred, args}` leave it out
  /// without a -Wmissing-field-initializers warning (same for the
  /// other span fields).
  SourceSpan span{};

  bool operator==(const Literal& o) const {
    return pred == o.pred && args == o.args;
  }
};

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_LITERAL_H_
