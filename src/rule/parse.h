// Parser for the s-expression rule format produced by rule/serialize.h.

#ifndef GENLINK_RULE_PARSE_H_
#define GENLINK_RULE_PARSE_H_

#include <string_view>

#include "common/status.h"
#include "distance/registry.h"
#include "rule/linkage_rule.h"
#include "transform/registry.h"

namespace genlink {

/// Parses a serialized linkage rule. Function names are resolved against
/// the given registries (defaults: the built-in registries). A rule that
/// parses but fails LinkageRule::Validate (a NaN, infinite or negative
/// threshold, a weight that is not finite and positive, ...) returns
/// Validate's status.
Result<LinkageRule> ParseRule(
    std::string_view text,
    const DistanceRegistry& distances = DistanceRegistry::Default(),
    const TransformRegistry& transforms = TransformRegistry::Default(),
    const AggregationRegistry& aggregations = AggregationRegistry::Default());

}  // namespace genlink

#endif  // GENLINK_RULE_PARSE_H_
