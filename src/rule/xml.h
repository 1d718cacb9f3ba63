// Silk-style XML serialization of linkage rules. The Silk Link Discovery
// Framework (where GenLink was originally implemented) stores linkage
// rules as XML; this module writes and reads a compatible subset:
//
//   <LinkageRule>
//     <Aggregate type="min" weight="1">
//       <Compare metric="levenshtein" threshold="1" weight="1">
//         <TransformInput function="lowerCase">
//           <Input path="label"/>
//         </TransformInput>
//         <Input path="label"/>
//       </Compare>
//     </Aggregate>
//   </LinkageRule>
//
// Within a <Compare>, the first value child reads from the source
// dataset and the second from the target dataset.

#ifndef GENLINK_RULE_XML_H_
#define GENLINK_RULE_XML_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "distance/registry.h"
#include "rule/linkage_rule.h"
#include "transform/registry.h"

namespace genlink {

/// Renders the rule as indented XML.
std::string ToXml(const LinkageRule& rule);

/// Parses a rule from the XML form. Function names resolve against the
/// given registries; a parsed rule that fails LinkageRule::Validate
/// returns Validate's status.
Result<LinkageRule> ParseRuleXml(
    std::string_view xml,
    const DistanceRegistry& distances = DistanceRegistry::Default(),
    const TransformRegistry& transforms = TransformRegistry::Default(),
    const AggregationRegistry& aggregations = AggregationRegistry::Default());

}  // namespace genlink

#endif  // GENLINK_RULE_XML_H_
