// Structural hashing of linkage rules: the one hash family behind every
// decision that asks whether two rules or subtrees are the same.
//
// Distance measures, transformations and aggregation functions are
// identified by registered name. Each registry holds one instance per
// name, and the XML, s-expression and corpus-artifact formats already
// treat the name as the function's whole identity, so the hashes are
// pure functions of a rule's serialized form: equal in every process
// and every build that parses the same rule text.
//
//   * CanonicalRuleHash — a 64-bit hash of the whole tree, thresholds
//     and weights included. It is domain-separated per operator kind
//     and length-prefixed per child list, so subtree boundaries cannot
//     alias. It keys the learner's breeding dedup and validation memo
//     (gp/genlink.cc) and the engine's fitness memo (eval/engine.h),
//     and stamps a corpus artifact with the rule it was indexed for.
//
//   * ValueOperatorHash — a hash of one value subtree. Two value
//     operators with equal hashes compute the same value set for every
//     entity. It keys the value store's transform plans
//     (eval/value_store.h), the corpus artifact's plan directory
//     (io/corpus_artifact.h) and MatcherIndex's query-side subtrees.
//
//   * ComparisonSignature — a hash of one comparison subtree that
//     EXCLUDES the threshold and the weight: distance measure x source
//     value subtree x target value subtree. Two comparisons with the
//     same signature compute the same raw distance for every entity
//     pair, whatever their thresholds, because the threshold is only
//     applied afterwards (ThresholdedScore). It keys the engine's
//     per-training-pair distance rows. A comparison's hash inside the
//     whole-rule hash is its signature extended by threshold and
//     weight, so AnalyzeRule derives both in one walk.
//
// The formulas are part of the corpus-artifact format (the plan
// directory and the header's rule stamp store them), so changing one
// orphans every artifact already written; tests/engine_test.cc pins
// them to values earlier builds wrote to disk.

#ifndef GENLINK_RULE_RULE_HASH_H_
#define GENLINK_RULE_RULE_HASH_H_

#include <cstdint>
#include <vector>

#include "rule/linkage_rule.h"

namespace genlink {

/// One comparison operator inside a rule, with its threshold-free
/// signature. Sites are collected in pre-order, so the list is
/// deterministic for a given structure.
struct ComparisonSite {
  const ComparisonOperator* op = nullptr;
  uint64_t signature = 0;
};

/// Everything the evaluation engine needs to know about one rule.
struct RuleHashInfo {
  /// CanonicalRuleHash of the rule.
  uint64_t canonical = 0;
  /// All comparison sites of the tree, in pre-order.
  std::vector<ComparisonSite> comparisons;
};

/// Hash of the whole rule, thresholds and weights included (0 for the
/// empty rule).
uint64_t CanonicalRuleHash(const LinkageRule& rule);

/// Hash of one value subtree.
uint64_t ValueOperatorHash(const ValueOperator& op);

/// Threshold- and weight-free signature of one comparison subtree.
uint64_t ComparisonSignature(const ComparisonOperator& op);

/// CanonicalRuleHash plus every comparison site, in one walk.
RuleHashInfo AnalyzeRule(const LinkageRule& rule);

}  // namespace genlink

#endif  // GENLINK_RULE_RULE_HASH_H_
