#ifndef HORNSAFE_LANG_RULE_H_
#define HORNSAFE_LANG_RULE_H_

#include <vector>

#include "lang/literal.h"

namespace hornsafe {

/// A Horn clause `head :- body₁, ..., bodyₙ` (paper, Section 1).
///
/// A fact is a rule with an empty body and a ground head; facts over
/// finite base predicates are stored separately by `Program`.
struct Rule {
  Literal head;
  std::vector<Literal> body;
  /// Position of the clause's first token in the source text (0 =
  /// built programmatically). Metadata only: excluded from equality
  /// and structural hashes.
  SourceSpan span{};

  bool operator==(const Rule& o) const {
    return head == o.head && body == o.body;
  }
};

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_RULE_H_
