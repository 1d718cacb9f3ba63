// Rule deployment artifacts: a learned linkage rule bundled with the
// match options it was validated under, in a versioned text format, so
// a rule can travel from the learner to a serving process (or another
// host) and be deployed against a MatcherIndex without re-running the
// pipeline.
//
// Format (line-oriented, UTF-8):
//
//   genlink-artifact v1
//   name: restaurant-dedup            (optional free-text label)
//   threshold: 0.5
//   use-blocking: 1
//   best-match-only: 0
//   rule-format: xml                  (or: sexpr)
//   ---
//   <LinkageRule> ... </LinkageRule>
//
// Header keys may appear in any order; unknown keys, unknown versions,
// a threshold that is not a finite number and a rule that fails
// LinkageRule::Validate are errors (the version line is how v2 gets
// room to grow).
// Artifacts from older builds may also carry `use-value-store: 1`,
// which is accepted and ignored; `use-value-store: 0` named an
// execution path that no longer exists and is rejected.
// The rule payload after the `---` separator reuses the existing rule
// serializations verbatim: Silk-style XML (rule/xml.h) or the
// s-expression form (rule/serialize.h, rule/parse.h). num_threads is
// deliberately NOT serialized — worker count is a property of the
// serving host, not of the learned rule.
//
// The CLI surface is `genlink learn --save-artifact` (produce) and
// `genlink query --artifact` (serve); tests/api_test.cc round-trips
// save -> load -> query bit-identically.

#ifndef GENLINK_IO_ARTIFACT_H_
#define GENLINK_IO_ARTIFACT_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "matcher/matcher.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// A deployable rule bundle. Move-only (it owns the rule).
struct RuleArtifact {
  /// Free-text label ("restaurant-dedup-2026-07"); may be empty. Must
  /// not contain newlines.
  std::string name;
  LinkageRule rule;
  /// The options the rule should be executed with. num_threads is not
  /// serialized and loads as the default (0 = hardware concurrency).
  MatchOptions options;
};

/// Payload serialization for the rule inside an artifact.
enum class ArtifactRuleFormat {
  kXml,    // Silk-style XML (rule/xml.h) — the default
  kSexpr,  // s-expression (rule/serialize.h)
};

/// Renders the artifact in the versioned text format.
std::string WriteRuleArtifact(const RuleArtifact& artifact,
                              ArtifactRuleFormat format = ArtifactRuleFormat::kXml);

/// Parses an artifact; fails with a descriptive status on version
/// mismatch, unknown header keys, malformed values or a rule payload
/// that does not parse.
Result<RuleArtifact> ReadRuleArtifact(std::string_view text);

/// WriteRuleArtifact straight to a file.
Status SaveArtifact(const std::string& path, const RuleArtifact& artifact,
                    ArtifactRuleFormat format = ArtifactRuleFormat::kXml);

/// ReadRuleArtifact straight from a file.
Result<RuleArtifact> LoadArtifact(const std::string& path);

}  // namespace genlink

#endif  // GENLINK_IO_ARTIFACT_H_
