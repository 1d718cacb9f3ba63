// The rule interpreter: a linkage rule compiled once into a flat
// post-order program, run by one evaluator over any distance source.
//
// LinkageRule::Evaluate walks the operator tree per pair and stays the
// executable spec of Definitions 7 and 8. Every compiled scoring surface
// runs this program instead — the evaluation engine over cached
// distance rows, MatcherIndex over a query's values against its
// ValueReader, LiveCorpus over a delta entry's site values. They differ only in where a comparison's raw
// distance comes from, so that is the one thing each supplies:
//
//   RuleProgram program(rule);  // once per rule
//   double score = Score(program, [&](size_t site, double threshold) {
//     return /* raw distance of comparison `site` for this pair */;
//   });
//
// The program lists the rule's comparison sites in the pre-order
// AnalyzeRule uses (rule/rule_hash.h), each with its threshold, so site
// k is the same comparison as RuleHashInfo::comparisons[k]. Its code is
// the post-order of the tree: "score the next site" for each
// comparison, and one aggregation op per aggregation with its function,
// arity and operand weights.
//
// Bit-identity with the spec: each site's score is the same
// ThresholdedScore(distance, threshold) call, and each aggregation
// receives the same (scores, weights) spans AggregationOperator::Evaluate
// builds — operand scores in operand order, then operand weights — so
// no double changes provided the distance source returns the spec's
// distance, or one that ThresholdedScore maps to the same score (a
// distance computed with the threshold as its bound, or
// kInfiniteDistance for an empty value set).

#ifndef GENLINK_RULE_RULE_PROGRAM_H_
#define GENLINK_RULE_RULE_PROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "distance/distance_measure.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// A compiled linkage rule. Holds pointers into the rule's operators:
/// the rule must outlive the program. Immutable after construction and
/// safe to share across threads.
class RuleProgram {
 public:
  /// Stack slots Score() keeps on the C++ stack; deeper programs use one
  /// heap buffer per call. GP rules stay far below this (the operator
  /// budget bounds the stack depth).
  static constexpr size_t kInlineStack = 32;

  /// One comparison operator of the rule.
  struct Site {
    const ComparisonOperator* op = nullptr;
    double threshold = 0.0;
  };

  /// One post-order instruction. `function == nullptr` scores the next
  /// site; otherwise the top `arity` stack entries are replaced by
  /// their aggregate under weights()[weights, weights + arity).
  struct Op {
    const AggregationFunction* function = nullptr;
    uint32_t arity = 0;
    uint32_t weights = 0;
  };

  /// The empty rule's program: scores 0.
  RuleProgram() = default;
  explicit RuleProgram(const LinkageRule& rule);

  bool empty() const { return code_.empty(); }
  const std::vector<Site>& sites() const { return sites_; }
  const std::vector<Op>& code() const { return code_; }
  std::span<const double> weights(const Op& op) const {
    return {weights_.data() + op.weights, op.arity};
  }
  /// Peak stack depth of one Score() run.
  size_t max_stack() const { return max_stack_; }

 private:
  void Compile(const SimilarityOperator& node, size_t& depth);

  std::vector<Site> sites_;
  std::vector<Op> code_;
  std::vector<double> weights_;
  size_t max_stack_ = 0;
};

/// Scores one pair: `distance(site, threshold)` must return the raw
/// distance of comparison `site` for that pair. 0 for the empty
/// program. No allocation unless max_stack() exceeds kInlineStack.
template <typename DistanceFn>
double Score(const RuleProgram& program, DistanceFn&& distance) {
  if (program.empty()) return 0.0;
  double inline_stack[RuleProgram::kInlineStack];
  std::vector<double> heap_stack;
  double* stack = inline_stack;
  if (program.max_stack() > RuleProgram::kInlineStack) {
    heap_stack.resize(program.max_stack());
    stack = heap_stack.data();
  }
  const std::vector<RuleProgram::Site>& sites = program.sites();
  size_t top = 0;
  size_t next_site = 0;
  for (const RuleProgram::Op& op : program.code()) {
    if (op.function == nullptr) {
      const double threshold = sites[next_site].threshold;
      stack[top++] =
          ThresholdedScore(distance(next_site, threshold), threshold);
      ++next_site;
    } else if (op.arity == 0) {
      stack[top++] = 0.0;  // the spec's empty aggregation
    } else {
      top -= op.arity;
      stack[top] = op.function->Aggregate({stack + top, op.arity},
                                          program.weights(op));
      ++top;
    }
  }
  return stack[0];
}

}  // namespace genlink

#endif  // GENLINK_RULE_RULE_PROGRAM_H_
