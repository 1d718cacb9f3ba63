// Tests for crash-safe file replacement (io/atomic_write.h): the
// published path must hold either the complete old content or the
// complete new content, never a torn mix — including when every write
// syscall fails (driven by the `io.write_error` failpoint) — and a
// failed or abandoned writer must not leak its temp file. Also covers
// the artifact header strictness that rides on the same PR: duplicate
// header keys are a ParseError, not a silent override.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "common/failpoint.h"
#include "io/artifact.h"
#include "io/atomic_write.h"
#include "io/csv.h"
#include "rule/builder.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

std::string ReadAll(const std::string& path) {
  auto content = ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << path;
  return std::move(content).value_or(std::string());
}

bool Exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// The writer's temp file for `path` in this process.
std::string TempFileOf(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

class AtomicWriteTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_F(AtomicWriteTest, WriteFileAtomicCreatesAndReplaces) {
  const std::string path = TestTempPath("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  EXPECT_EQ(ReadAll(path), "first\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer content\n").ok());
  EXPECT_EQ(ReadAll(path), "second, longer content\n");
  EXPECT_FALSE(Exists(TempFileOf(path)));
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, StreamingAppendPatchCommit) {
  const std::string path = TestTempPath("stream.bin");
  auto writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("????header").ok());
  ASSERT_TRUE(writer->Append("payload").ok());
  EXPECT_EQ(writer->bytes_written(), 17u);
  // The header-checksum idiom: patch earlier bytes after the payload.
  ASSERT_TRUE(writer->PatchAt(0, "GOOD").ok());
  EXPECT_EQ(writer->bytes_written(), 17u);
  // Nothing is visible at the destination before Commit.
  EXPECT_FALSE(Exists(path));
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(ReadAll(path), "GOODheaderpayload");
  EXPECT_FALSE(Exists(TempFileOf(path)));
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, PatchBeyondEndFails) {
  const std::string path = TestTempPath("patch_oob.bin");
  auto writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("short").ok());
  EXPECT_FALSE(writer->PatchAt(3, "xyz").ok());
  writer->Abort();
  EXPECT_FALSE(Exists(TempFileOf(path)));
}

TEST_F(AtomicWriteTest, AbortAndDropLeaveNoTrace) {
  const std::string path = TestTempPath("abandoned.bin");
  {
    auto writer = AtomicFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("doomed").ok());
    EXPECT_TRUE(Exists(TempFileOf(path)));
    // Destroyed without Commit: the temp file goes with it.
  }
  EXPECT_FALSE(Exists(path));
  EXPECT_FALSE(Exists(TempFileOf(path)));
}

TEST_F(AtomicWriteTest, InjectedWriteErrorPreservesOldContent) {
  const std::string path = TestTempPath("survives.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "the old artifact\n").ok());

  Failpoints::Instance().Arm("io.write_error", {.error_code = ENOSPC});
  const Status status = WriteFileAtomic(path, "half-written new content\n");
  ASSERT_FALSE(status.ok());
  EXPECT_GT(Failpoints::Instance().Hits("io.write_error"), 0u);
  Failpoints::Instance().DisarmAll();

  // The crash-safety contract: the old bytes survive INTACT and the
  // temp file is gone.
  EXPECT_EQ(ReadAll(path), "the old artifact\n");
  EXPECT_FALSE(Exists(TempFileOf(path)));

  // Disarmed, the same replacement succeeds.
  ASSERT_TRUE(WriteFileAtomic(path, "new content\n").ok());
  EXPECT_EQ(ReadAll(path), "new content\n");
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, InjectedErrorAtEveryWriteSiteKeepsDestination) {
  const std::string path = TestTempPath("every_site.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "seed\n").ok());
  // Fire one failure at the k-th write-site hit, for every k the
  // successful path performs, so Append, the fsync flush and the
  // Commit leg each get their turn to fail.
  for (uint64_t skip = 0; skip < 4; ++skip) {
    Failpoints::Instance().Arm("io.write_error",
                               {.skip = skip, .count = 1, .error_code = EIO});
    Status status;
    {
      auto writer = AtomicFileWriter::Create(path);
      ASSERT_TRUE(writer.ok());
      status = writer->Append("partial ");
      if (status.ok()) status = writer->Append("content\n");
      if (status.ok()) status = writer->Commit();
      // The writer leaves scope here: a failed one must take its temp
      // file with it.
    }
    Failpoints::Instance().DisarmAll();
    if (!status.ok()) {
      EXPECT_EQ(ReadAll(path), "seed\n") << "skip=" << skip;
    } else {
      // The window fell past the sites this sequence hits.
      EXPECT_EQ(ReadAll(path), "partial content\n") << "skip=" << skip;
      ASSERT_TRUE(WriteFileAtomic(path, "seed\n").ok());
    }
    EXPECT_FALSE(Exists(TempFileOf(path))) << "skip=" << skip;
  }
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, SaveArtifactFailureKeepsDeployableOldFile) {
  const std::string path = TestTempPath("artifact.gla");
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("name"), Prop("name"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  RuleArtifact artifact;
  artifact.name = "original";
  artifact.rule = std::move(rule).value();
  ASSERT_TRUE(SaveArtifact(path, artifact).ok());

  RuleArtifact replacement;
  replacement.name = "replacement";
  replacement.rule = artifact.rule.Clone();
  Failpoints::Instance().Arm("io.write_error", {.error_code = ENOSPC});
  ASSERT_FALSE(SaveArtifact(path, replacement).ok());
  Failpoints::Instance().DisarmAll();

  // The old artifact still parses and still deploys — exactly what a
  // serve daemon's reload would read after a failed re-index.
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "original");
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, DuplicateArtifactHeaderKeyIsParseError) {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("name"), Prop("name"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  RuleArtifact artifact;
  artifact.name = "dup-check";
  artifact.options.threshold = 0.75;
  artifact.rule = std::move(rule).value();
  const std::string text = WriteRuleArtifact(artifact);

  // The clean round trip first: what Write emits, Read accepts.
  auto round_trip = ReadRuleArtifact(text);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_EQ(round_trip->name, "dup-check");
  EXPECT_EQ(round_trip->options.threshold, 0.75);

  // A second `threshold:` before the separator must be rejected, not
  // last-one-wins: a silently overridden option would deploy a rule
  // under options nobody reviewed.
  const size_t separator = text.find("---");
  ASSERT_NE(separator, std::string::npos);
  std::string duplicated = text;
  duplicated.insert(separator, "threshold: 0.1\n");
  auto rejected = ReadRuleArtifact(duplicated);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);
  EXPECT_NE(rejected.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(rejected.status().message().find("threshold"), std::string::npos);
}

}  // namespace
}  // namespace genlink
