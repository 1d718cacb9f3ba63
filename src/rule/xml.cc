#include "rule/xml.h"

#include <cctype>
#include <map>
#include <memory>
#include <vector>

#include "common/string_util.h"

namespace genlink {
namespace {

// ------------------------------------------------------------- writing

std::string EscapeXml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void Indent(std::string& out, int depth) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
}

void WriteValueXml(const ValueOperator* op, std::string& out, int depth) {
  Indent(out, depth);
  if (op->kind() == OperatorKind::kProperty) {
    const auto* prop = static_cast<const PropertyOperator*>(op);
    out += "<Input path=\"" + EscapeXml(prop->property()) + "\"/>\n";
    return;
  }
  const auto* tf = static_cast<const TransformOperator*>(op);
  out += "<TransformInput function=\"" + EscapeXml(tf->function()->name());
  out += "\">\n";
  for (const auto& input : tf->inputs()) {
    WriteValueXml(input.get(), out, depth + 1);
  }
  Indent(out, depth);
  out += "</TransformInput>\n";
}

void WriteSimilarityXml(const SimilarityOperator* op, std::string& out, int depth) {
  Indent(out, depth);
  if (op->kind() == OperatorKind::kComparison) {
    const auto* cmp = static_cast<const ComparisonOperator*>(op);
    out += "<Compare metric=\"" + EscapeXml(cmp->measure()->name()) +
           "\" threshold=\"" + FormatDoubleExact(cmp->threshold()) +
           "\" weight=\"" + FormatDoubleExact(cmp->weight()) + "\">\n";
    WriteValueXml(cmp->source(), out, depth + 1);
    WriteValueXml(cmp->target(), out, depth + 1);
    Indent(out, depth);
    out += "</Compare>\n";
    return;
  }
  const auto* agg = static_cast<const AggregationOperator*>(op);
  out += "<Aggregate type=\"" + EscapeXml(agg->function()->name()) +
         "\" weight=\"" + FormatDoubleExact(agg->weight()) + "\">\n";
  for (const auto& child : agg->operands()) {
    WriteSimilarityXml(child.get(), out, depth + 1);
  }
  Indent(out, depth);
  out += "</Aggregate>\n";
}

// ------------------------------------------------------------- parsing

/// A parsed XML element (this subset has no text content).
struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<XmlNode> children;
};

std::string UnescapeXml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    auto try_entity = [&](std::string_view entity, char replacement) {
      if (text.substr(i, entity.size()) == entity) {
        out.push_back(replacement);
        i += entity.size();
        return true;
      }
      return false;
    };
    if (!try_entity("&amp;", '&') && !try_entity("&lt;", '<') &&
        !try_entity("&gt;", '>') && !try_entity("&quot;", '"') &&
        !try_entity("&apos;", '\'')) {
      out.push_back(text[i++]);
    }
  }
  return out;
}

/// A minimal non-validating XML reader for attribute-only documents.
class XmlReader {
 public:
  explicit XmlReader(std::string_view input) : input_(input) {}

  Result<XmlNode> Parse() {
    SkipProlog();
    auto root = ParseElement();
    if (!root.ok()) return root;
    SkipWhitespace();
    if (pos_ < input_.size()) {
      return Status::ParseError("trailing content after root element");
    }
    return root;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    // Skip <?xml ...?> declarations and comments.
    while (pos_ + 1 < input_.size() && input_[pos_] == '<' &&
           (input_[pos_ + 1] == '?' || input_[pos_ + 1] == '!')) {
      size_t end = input_.find('>', pos_);
      if (end == std::string_view::npos) return;
      pos_ = end + 1;
      SkipWhitespace();
    }
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_' || input_[pos_] == '-' || input_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) return Status::ParseError("expected XML name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<XmlNode> ParseElement() {
    SkipWhitespace();
    if (pos_ >= input_.size() || input_[pos_] != '<') {
      return Status::ParseError("expected '<'");
    }
    ++pos_;
    XmlNode node;
    auto name = ParseName();
    if (!name.ok()) return name.status();
    node.name = std::move(name).value();

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size()) return Status::ParseError("unterminated tag");
      if (input_[pos_] == '/' || input_[pos_] == '>') break;
      auto attr = ParseName();
      if (!attr.ok()) return attr.status();
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '=') {
        return Status::ParseError("expected '=' after attribute name");
      }
      ++pos_;
      SkipWhitespace();
      if (pos_ >= input_.size() || (input_[pos_] != '"' && input_[pos_] != '\'')) {
        return Status::ParseError("expected quoted attribute value");
      }
      char quote = input_[pos_++];
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != quote) ++pos_;
      if (pos_ >= input_.size()) {
        return Status::ParseError("unterminated attribute value");
      }
      node.attributes[attr.value()] =
          UnescapeXml(input_.substr(start, pos_ - start));
      ++pos_;
    }

    if (input_[pos_] == '/') {
      ++pos_;
      if (pos_ >= input_.size() || input_[pos_] != '>') {
        return Status::ParseError("malformed self-closing tag");
      }
      ++pos_;
      return node;
    }
    ++pos_;  // consume '>'

    // Children until the matching close tag.
    while (true) {
      SkipWhitespace();
      if (pos_ + 1 < input_.size() && input_[pos_] == '<' &&
          input_[pos_ + 1] == '/') {
        pos_ += 2;
        auto close = ParseName();
        if (!close.ok()) return close.status();
        if (close.value() != node.name) {
          return Status::ParseError("mismatched close tag </" + close.value() +
                                    "> for <" + node.name + ">");
        }
        SkipWhitespace();
        if (pos_ >= input_.size() || input_[pos_] != '>') {
          return Status::ParseError("malformed close tag");
        }
        ++pos_;
        return node;
      }
      if (pos_ >= input_.size()) {
        return Status::ParseError("unterminated element <" + node.name + ">");
      }
      auto child = ParseElement();
      if (!child.ok()) return child.status();
      node.children.push_back(std::move(child).value());
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// --------------------------------------------------- XML -> rule mapping

Result<double> RequiredNumber(const XmlNode& node, const std::string& attr) {
  auto it = node.attributes.find(attr);
  if (it == node.attributes.end()) {
    return Status::ParseError("<" + node.name + "> missing attribute '" + attr +
                              "'");
  }
  double value;
  if (!ParseDouble(it->second, &value)) {
    return Status::ParseError("<" + node.name + "> attribute '" + attr +
                              "' is not a number: " + it->second);
  }
  return value;
}

Result<std::unique_ptr<ValueOperator>> BuildValue(
    const XmlNode& node, const TransformRegistry& transforms) {
  if (node.name == "Input") {
    auto it = node.attributes.find("path");
    if (it == node.attributes.end()) {
      return Status::ParseError("<Input> missing 'path'");
    }
    return std::unique_ptr<ValueOperator>(
        std::make_unique<PropertyOperator>(it->second));
  }
  if (node.name == "TransformInput") {
    auto it = node.attributes.find("function");
    if (it == node.attributes.end()) {
      return Status::ParseError("<TransformInput> missing 'function'");
    }
    const Transformation* fn = transforms.Find(it->second);
    if (fn == nullptr) {
      return Status::NotFound("unknown transformation '" + it->second + "'");
    }
    std::vector<std::unique_ptr<ValueOperator>> inputs;
    for (const auto& child : node.children) {
      auto input = BuildValue(child, transforms);
      if (!input.ok()) return input.status();
      inputs.push_back(std::move(input).value());
    }
    if (inputs.size() != fn->arity()) {
      return Status::ParseError("transformation '" + it->second + "' expects " +
                                std::to_string(fn->arity()) + " inputs, got " +
                                std::to_string(inputs.size()));
    }
    return std::unique_ptr<ValueOperator>(
        std::make_unique<TransformOperator>(fn, std::move(inputs)));
  }
  return Status::ParseError("unexpected element <" + node.name +
                            "> in value position");
}

Result<std::unique_ptr<SimilarityOperator>> BuildSimilarity(
    const XmlNode& node, const DistanceRegistry& distances,
    const TransformRegistry& transforms,
    const AggregationRegistry& aggregations) {
  if (node.name == "Compare") {
    auto it = node.attributes.find("metric");
    if (it == node.attributes.end()) {
      return Status::ParseError("<Compare> missing 'metric'");
    }
    const DistanceMeasure* measure = distances.Find(it->second);
    if (measure == nullptr) {
      return Status::NotFound("unknown distance measure '" + it->second + "'");
    }
    auto threshold = RequiredNumber(node, "threshold");
    if (!threshold.ok()) return threshold.status();
    double weight = 1.0;
    if (node.attributes.count("weight")) {
      auto parsed = RequiredNumber(node, "weight");
      if (!parsed.ok()) return parsed.status();
      weight = parsed.value();
    }
    if (node.children.size() != 2) {
      return Status::ParseError("<Compare> needs exactly 2 value children");
    }
    auto source = BuildValue(node.children[0], transforms);
    if (!source.ok()) return source.status();
    auto target = BuildValue(node.children[1], transforms);
    if (!target.ok()) return target.status();
    auto cmp = std::make_unique<ComparisonOperator>(std::move(source).value(),
                                                    std::move(target).value(),
                                                    measure, threshold.value());
    cmp->set_weight(weight);
    return std::unique_ptr<SimilarityOperator>(std::move(cmp));
  }
  if (node.name == "Aggregate") {
    auto it = node.attributes.find("type");
    if (it == node.attributes.end()) {
      return Status::ParseError("<Aggregate> missing 'type'");
    }
    const AggregationFunction* fn = aggregations.Find(it->second);
    if (fn == nullptr) {
      return Status::NotFound("unknown aggregation '" + it->second + "'");
    }
    double weight = 1.0;
    if (node.attributes.count("weight")) {
      auto parsed = RequiredNumber(node, "weight");
      if (!parsed.ok()) return parsed.status();
      weight = parsed.value();
    }
    if (node.children.empty()) {
      return Status::ParseError("<Aggregate> with no operands");
    }
    std::vector<std::unique_ptr<SimilarityOperator>> operands;
    for (const auto& child : node.children) {
      auto operand = BuildSimilarity(child, distances, transforms, aggregations);
      if (!operand.ok()) return operand.status();
      operands.push_back(std::move(operand).value());
    }
    auto agg = std::make_unique<AggregationOperator>(fn, std::move(operands));
    agg->set_weight(weight);
    return std::unique_ptr<SimilarityOperator>(std::move(agg));
  }
  return Status::ParseError("unexpected element <" + node.name +
                            "> in similarity position");
}

}  // namespace

std::string ToXml(const LinkageRule& rule) {
  std::string out = "<LinkageRule>\n";
  if (!rule.empty()) WriteSimilarityXml(rule.root(), out, 1);
  out += "</LinkageRule>\n";
  return out;
}

Result<LinkageRule> ParseRuleXml(std::string_view xml,
                                 const DistanceRegistry& distances,
                                 const TransformRegistry& transforms,
                                 const AggregationRegistry& aggregations) {
  XmlReader reader(xml);
  auto root = reader.Parse();
  if (!root.ok()) return root.status();
  if (root->name != "LinkageRule") {
    return Status::ParseError("root element must be <LinkageRule>, got <" +
                              root->name + ">");
  }
  if (root->children.size() != 1) {
    return Status::ParseError("<LinkageRule> must contain exactly one operator");
  }
  auto similarity =
      BuildSimilarity(root->children[0], distances, transforms, aggregations);
  if (!similarity.ok()) return similarity.status();
  LinkageRule rule(std::move(similarity).value());
  GENLINK_RETURN_IF_ERROR(rule.Validate());
  return rule;
}

}  // namespace genlink
