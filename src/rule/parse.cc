#include "rule/parse.h"

#include <cctype>
#include <vector>

#include "common/string_util.h"

namespace genlink {
namespace {

// ------------------------------------------------------------- tokenizer

struct Token {
  enum class Type { kOpen, kClose, kAtom, kString, kEnd } type;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<Token> Next() {
    SkipWhitespace();
    if (pos_ >= input_.size()) return Token{Token::Type::kEnd, ""};
    char c = input_[pos_];
    if (c == '(') {
      ++pos_;
      return Token{Token::Type::kOpen, "("};
    }
    if (c == ')') {
      ++pos_;
      return Token{Token::Type::kClose, ")"};
    }
    if (c == '"') return LexString();
    return LexAtom();
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Result<Token> LexString() {
    ++pos_;  // consume opening quote
    std::string text;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '\\') {
        if (pos_ >= input_.size()) break;
        text.push_back(input_[pos_++]);
      } else if (c == '"') {
        return Token{Token::Type::kString, std::move(text)};
      } else {
        text.push_back(c);
      }
    }
    return Status::ParseError("unterminated string literal");
  }

  Result<Token> LexAtom() {
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
          c == '"') {
        break;
      }
      ++pos_;
    }
    return Token{Token::Type::kAtom, std::string(input_.substr(start, pos_ - start))};
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// --------------------------------------------------------------- parser

class Parser {
 public:
  Parser(std::string_view input, const DistanceRegistry& distances,
         const TransformRegistry& transforms,
         const AggregationRegistry& aggregations)
      : lexer_(input),
        distances_(distances),
        transforms_(transforms),
        aggregations_(aggregations) {}

  Result<LinkageRule> Parse() {
    GENLINK_RETURN_IF_ERROR(Advance());
    auto root = ParseSimilarity();
    if (!root.ok()) return root.status();
    if (current_.type != Token::Type::kEnd) {
      return Status::ParseError("trailing input after rule");
    }
    LinkageRule rule(std::move(root).value());
    GENLINK_RETURN_IF_ERROR(rule.Validate());
    return rule;
  }

 private:
  Status Advance() {
    auto token = lexer_.Next();
    if (!token.ok()) return token.status();
    current_ = std::move(token).value();
    return Status::Ok();
  }

  Status Expect(Token::Type type, std::string_view what) {
    if (current_.type != type) {
      return Status::ParseError("expected " + std::string(what) + ", got '" +
                                current_.text + "'");
    }
    return Advance();
  }

  /// Parses ":t <num>" / ":w <num>" parameter pairs, in any order.
  Status ParseParams(double* threshold, double* weight) {
    while (current_.type == Token::Type::kAtom && !current_.text.empty() &&
           current_.text[0] == ':') {
      std::string key = current_.text;
      GENLINK_RETURN_IF_ERROR(Advance());
      if (current_.type != Token::Type::kAtom) {
        return Status::ParseError("expected numeric value after " + key);
      }
      double value;
      if (!ParseDouble(current_.text, &value)) {
        return Status::ParseError("malformed number '" + current_.text + "'");
      }
      if (key == ":t" && threshold != nullptr) {
        *threshold = value;
      } else if (key == ":w") {
        *weight = value;
      } else {
        return Status::ParseError("unknown parameter " + key);
      }
      GENLINK_RETURN_IF_ERROR(Advance());
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<ValueOperator>> ParseValue() {
    GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kOpen, "'('"));
    if (current_.type != Token::Type::kAtom) {
      return Status::ParseError("expected operator name");
    }
    std::string head = current_.text;
    GENLINK_RETURN_IF_ERROR(Advance());

    if (head == "property") {
      if (current_.type != Token::Type::kString) {
        return Status::ParseError("property expects a quoted name");
      }
      std::string name = current_.text;
      GENLINK_RETURN_IF_ERROR(Advance());
      GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kClose, "')'"));
      return std::unique_ptr<ValueOperator>(
          std::make_unique<PropertyOperator>(std::move(name)));
    }
    if (head == "transform") {
      if (current_.type != Token::Type::kAtom) {
        return Status::ParseError("transform expects a function name");
      }
      const Transformation* fn = transforms_.Find(current_.text);
      if (fn == nullptr) {
        return Status::NotFound("unknown transformation '" + current_.text + "'");
      }
      GENLINK_RETURN_IF_ERROR(Advance());
      std::vector<std::unique_ptr<ValueOperator>> inputs;
      while (current_.type == Token::Type::kOpen) {
        auto input = ParseValue();
        if (!input.ok()) return input.status();
        inputs.push_back(std::move(input).value());
      }
      GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kClose, "')'"));
      if (inputs.size() != fn->arity()) {
        return Status::ParseError(
            "transformation '" + std::string(fn->name()) + "' expects " +
            std::to_string(fn->arity()) + " inputs");
      }
      return std::unique_ptr<ValueOperator>(
          std::make_unique<TransformOperator>(fn, std::move(inputs)));
    }
    return Status::ParseError("unknown value operator '" + head + "'");
  }

  Result<std::unique_ptr<SimilarityOperator>> ParseSimilarity() {
    GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kOpen, "'('"));
    if (current_.type != Token::Type::kAtom) {
      return Status::ParseError("expected operator name");
    }
    std::string head = current_.text;
    GENLINK_RETURN_IF_ERROR(Advance());

    if (head == "compare") {
      if (current_.type != Token::Type::kAtom) {
        return Status::ParseError("compare expects a distance measure name");
      }
      const DistanceMeasure* measure = distances_.Find(current_.text);
      if (measure == nullptr) {
        return Status::NotFound("unknown distance measure '" + current_.text + "'");
      }
      GENLINK_RETURN_IF_ERROR(Advance());
      double threshold = 0.0, weight = 1.0;
      GENLINK_RETURN_IF_ERROR(ParseParams(&threshold, &weight));
      auto source = ParseValue();
      if (!source.ok()) return source.status();
      auto target = ParseValue();
      if (!target.ok()) return target.status();
      GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kClose, "')'"));
      auto cmp = std::make_unique<ComparisonOperator>(
          std::move(source).value(), std::move(target).value(), measure, threshold);
      cmp->set_weight(weight);
      return std::unique_ptr<SimilarityOperator>(std::move(cmp));
    }
    if (head == "aggregate") {
      if (current_.type != Token::Type::kAtom) {
        return Status::ParseError("aggregate expects a function name");
      }
      const AggregationFunction* fn = aggregations_.Find(current_.text);
      if (fn == nullptr) {
        return Status::NotFound("unknown aggregation '" + current_.text + "'");
      }
      GENLINK_RETURN_IF_ERROR(Advance());
      double weight = 1.0;
      GENLINK_RETURN_IF_ERROR(ParseParams(nullptr, &weight));
      std::vector<std::unique_ptr<SimilarityOperator>> operands;
      while (current_.type == Token::Type::kOpen) {
        auto child = ParseSimilarity();
        if (!child.ok()) return child.status();
        operands.push_back(std::move(child).value());
      }
      GENLINK_RETURN_IF_ERROR(Expect(Token::Type::kClose, "')'"));
      if (operands.empty()) {
        return Status::ParseError("aggregation with no operands");
      }
      auto agg = std::make_unique<AggregationOperator>(fn, std::move(operands));
      agg->set_weight(weight);
      return std::unique_ptr<SimilarityOperator>(std::move(agg));
    }
    return Status::ParseError("unknown similarity operator '" + head + "'");
  }

  Lexer lexer_;
  Token current_{Token::Type::kEnd, ""};
  const DistanceRegistry& distances_;
  const TransformRegistry& transforms_;
  const AggregationRegistry& aggregations_;
};

}  // namespace

Result<LinkageRule> ParseRule(std::string_view text,
                              const DistanceRegistry& distances,
                              const TransformRegistry& transforms,
                              const AggregationRegistry& aggregations) {
  Parser parser(text, distances, transforms, aggregations);
  return parser.Parse();
}

}  // namespace genlink
