#include "io/artifact.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "io/atomic_write.h"
#include "io/csv.h"
#include "rule/parse.h"
#include "rule/serialize.h"
#include "rule/xml.h"

namespace genlink {
namespace {

constexpr std::string_view kMagic = "genlink-artifact";
constexpr std::string_view kVersion = "v1";
constexpr std::string_view kSeparator = "---";

Result<bool> ParseBoolValue(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  return Status::ParseError("artifact: '" + std::string(key) +
                            "' expects 0/1, got '" + std::string(value) + "'");
}

}  // namespace

std::string WriteRuleArtifact(const RuleArtifact& artifact,
                              ArtifactRuleFormat format) {
  std::string out;
  out += kMagic;
  out += ' ';
  out += kVersion;
  out += '\n';
  if (!artifact.name.empty()) {
    out += "name: " + artifact.name + "\n";
  }
  out += "threshold: " + FormatDoubleExact(artifact.options.threshold) + "\n";
  out += "use-blocking: ";
  out += artifact.options.use_blocking ? '1' : '0';
  out += "\nbest-match-only: ";
  out += artifact.options.best_match_only ? '1' : '0';
  out += "\nrule-format: ";
  out += format == ArtifactRuleFormat::kXml ? "xml" : "sexpr";
  out += '\n';
  out += kSeparator;
  out += '\n';
  out += format == ArtifactRuleFormat::kXml ? ToXml(artifact.rule)
                                            : ToPrettySexpr(artifact.rule);
  if (!out.empty() && out.back() != '\n') out += '\n';
  return out;
}

Result<RuleArtifact> ReadRuleArtifact(std::string_view text) {
  RuleArtifact artifact;
  std::string rule_format = "xml";

  // Header: first line is the versioned magic, then `key: value` lines
  // until the `---` separator; everything after it is the rule payload.
  size_t pos = 0;
  bool saw_magic = false;
  bool saw_separator = false;
  // Each header key may appear at most once: silently letting a later
  // `threshold:` override an earlier one would deploy a rule under
  // options nobody reviewed, so duplicates are rejected with the same
  // strictness as unknown keys. Keys are views into `text` (stable).
  std::unordered_set<std::string_view> seen_keys;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = TrimView(
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

    if (!saw_magic) {
      if (!StartsWith(line, kMagic)) {
        return Status::ParseError(
            "artifact: missing 'genlink-artifact <version>' header line");
      }
      std::string_view version = TrimView(line.substr(kMagic.size()));
      if (version != kVersion) {
        return Status::ParseError("artifact: unsupported version '" +
                                  std::string(version) + "' (this build reads " +
                                  std::string(kVersion) + ")");
      }
      saw_magic = true;
      continue;
    }
    if (line == kSeparator) {
      saw_separator = true;
      break;
    }
    if (line.empty()) continue;

    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("artifact: malformed header line '" +
                                std::string(line) + "' (expected 'key: value')");
    }
    const std::string_view key = TrimView(line.substr(0, colon));
    const std::string_view value = TrimView(line.substr(colon + 1));
    if (!seen_keys.insert(key).second) {
      return Status::ParseError("artifact: duplicate header key '" +
                                std::string(key) + "'");
    }
    if (key == "name") {
      artifact.name = std::string(value);
    } else if (key == "threshold") {
      if (!ParseDouble(value, &artifact.options.threshold) ||
          !std::isfinite(artifact.options.threshold)) {
        return Status::ParseError("artifact: bad threshold '" +
                                  std::string(value) + "'");
      }
    } else if (key == "use-blocking") {
      auto flag = ParseBoolValue(key, value);
      if (!flag.ok()) return flag.status();
      artifact.options.use_blocking = *flag;
    } else if (key == "use-value-store") {
      // Written by older builds, where 0 selected a per-pair execution
      // path that no longer exists. 1 is what every build executes.
      auto flag = ParseBoolValue(key, value);
      if (!flag.ok()) return flag.status();
      if (!*flag) {
        return Status::ParseError(
            "artifact: 'use-value-store: 0' is no longer supported (rules "
            "always execute over the value store); remove the line or set "
            "it to 1");
      }
    } else if (key == "best-match-only") {
      auto flag = ParseBoolValue(key, value);
      if (!flag.ok()) return flag.status();
      artifact.options.best_match_only = *flag;
    } else if (key == "rule-format") {
      rule_format = std::string(value);
      if (rule_format != "xml" && rule_format != "sexpr") {
        return Status::ParseError("artifact: unknown rule-format '" +
                                  rule_format + "' (expected xml or sexpr)");
      }
    } else {
      return Status::ParseError("artifact: unknown header key '" +
                                std::string(key) + "'");
    }
  }
  if (!saw_separator) {
    return Status::ParseError("artifact: missing '---' separator before rule");
  }

  const std::string_view payload =
      pos <= text.size() ? text.substr(pos) : std::string_view{};
  auto rule = rule_format == "xml" ? ParseRuleXml(payload)
                                   : ParseRule(payload);
  if (!rule.ok()) return rule.status();
  artifact.rule = std::move(*rule);
  return artifact;
}

Status SaveArtifact(const std::string& path, const RuleArtifact& artifact,
                    ArtifactRuleFormat format) {
  // Crash-safe: staged in a same-directory temp file and renamed over
  // `path`, so a crash or full disk mid-save can never leave a torn
  // artifact where a serving process reloads from (io/atomic_write.h).
  return WriteFileAtomic(path, WriteRuleArtifact(artifact, format));
}

Result<RuleArtifact> LoadArtifact(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return ReadRuleArtifact(*content);
}

}  // namespace genlink
