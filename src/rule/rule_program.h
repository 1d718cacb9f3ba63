// The rule interpreter: a linkage rule compiled once into a flat
// post-order program, run over any distance source.
//
// LinkageRule::Evaluate walks the operator tree per pair and stays the
// executable spec of Definitions 7 and 8. Every compiled scoring surface
// runs this program instead. They differ only in where a comparison's
// raw distance comes from, so that is the one thing each supplies.
// MatcherIndex (a query's values against its ValueReader) and
// LiveCorpus (a delta entry's site values) score one pair at a time:
//
//   RuleProgram program(rule);  // once per rule
//   double score = Score(program, [&](size_t site, double threshold) {
//     return /* raw distance of comparison `site` for this pair */;
//   });
//
// The evaluation engine holds every training pair's distance for a
// site in one cached row, so it scores a block of up to kBlock pairs
// per run of the program: each site turns its slice of the row into a
// score column, and each aggregation combines its operand columns in
// one AggregateColumns call.
//
//   double scores[RuleProgram::kBlock];
//   ScoreBlock(program, n, [&](size_t site) {
//     return /* pointer to the n raw distances of comparison `site` */;
//   }, scores);
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
// kInfiniteDistance for an empty value set). ScoreBlock keeps this
// element by element: ThresholdedScores and AggregateColumns promise
// each element the double of their scalar forms, so a pair's score is
// the one Score() returns (tests/rule_oracle_test.cc compares the bit
// patterns).

#ifndef GENLINK_RULE_RULE_PROGRAM_H_
#define GENLINK_RULE_RULE_PROGRAM_H_

#include <algorithm>
#include <cassert>
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

  /// Pairs one ScoreBlock() run scores at most. Its stack of score
  /// columns is the caller's output column plus kInlineStack - 1
  /// columns of kBlock doubles (62 KiB) on the C++ stack.
  static constexpr size_t kBlock = 256;

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

/// Scores `n` <= kBlock pairs in one run of the program: `row(site)`
/// must return a pointer to the raw distances of comparison `site` for
/// the n pairs, in pair order. out[i] receives pair i's score, the
/// double Score() returns for it; `out` holds kBlock doubles and is the
/// bottom slot of the column stack. Allocates nothing unless
/// max_stack() exceeds kInlineStack; the stack never grows with n.
template <typename RowFn>
void ScoreBlock(const RuleProgram& program, size_t n, RowFn&& row,
                double* out) {
  constexpr size_t kBlock = RuleProgram::kBlock;
  assert(n <= kBlock);
  if (program.empty()) {
    std::fill_n(out, n, 0.0);
    return;
  }
  // Stack slot 0 is `out`, slot s > 0 column s - 1 of `columns`;
  // slots[s] points at slot s, so an aggregation's operands are a span
  // of slots and its result lands in place of its first operand.
  double inline_columns[(RuleProgram::kInlineStack - 1) * kBlock];
  double* inline_slots[RuleProgram::kInlineStack];
  std::vector<double> heap_columns;
  std::vector<double*> heap_slots;
  double* columns = inline_columns;
  double** slots = inline_slots;
  if (program.max_stack() > RuleProgram::kInlineStack) {
    heap_columns.resize((program.max_stack() - 1) * kBlock);
    heap_slots.resize(program.max_stack());
    columns = heap_columns.data();
    slots = heap_slots.data();
  }
  slots[0] = out;
  for (size_t s = 1; s < program.max_stack(); ++s) {
    slots[s] = columns + (s - 1) * kBlock;
  }
  const std::vector<RuleProgram::Site>& sites = program.sites();
  size_t top = 0;
  size_t next_site = 0;
  for (const RuleProgram::Op& op : program.code()) {
    if (op.function == nullptr) {
      ThresholdedScores({row(next_site), n}, sites[next_site].threshold,
                        slots[top]);
      ++top;
      ++next_site;
    } else if (op.arity == 0) {
      std::fill_n(slots[top], n, 0.0);  // the spec's empty aggregation
      ++top;
    } else {
      top -= op.arity;
      op.function->AggregateColumns({slots + top, op.arity},
                                    program.weights(op), n, slots[top]);
      ++top;
    }
  }
}

}  // namespace genlink

#endif  // GENLINK_RULE_RULE_PROGRAM_H_
