// End-to-end smoke test for tools/genlink_cli: exports a synthetic
// Restaurant task to CSV, shells out to the real binary to learn a
// rule, and asserts the process exits 0 and the written rule parses.
//
// The path to the CLI binary is passed as argv[1] by CTest (see
// tests/CMakeLists.txt), so this suite provides its own main.

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/restaurant.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "rule/linkage_rule.h"
#include "rule/xml.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

std::string g_cli_path;

// Serializes a dataset the way genlink_cli expects it back: a header
// row of "id" + property names, one row per entity. Multi-valued cells
// are joined with '|' (the CLI's loader keeps them as one value, which
// is fine for a smoke run).
std::string DatasetToCsv(const Dataset& dataset) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"id"};
  const Schema& schema = dataset.schema();
  for (const std::string& name : schema.property_names()) {
    header.push_back(name);
  }
  rows.push_back(std::move(header));
  for (const Entity& entity : dataset.entities()) {
    std::vector<std::string> row{entity.id()};
    for (PropertyId p = 0; p < schema.NumProperties(); ++p) {
      const ValueSet& values = entity.Values(p);
      std::string cell;
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) cell += '|';
        cell += values[i];
      }
      row.push_back(std::move(cell));
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows);
}

TEST(CliSmokeTest, LearnsParseableRuleOnRestaurant) {
  ASSERT_FALSE(g_cli_path.empty())
      << "pass the genlink_cli path as argv[1] (CTest does this)";

  // A shrunken Restaurant dedup task keeps the learn step in seconds.
  RestaurantConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateRestaurant(config);
  ASSERT_GT(task.Source().size(), 0u);
  ASSERT_GT(task.links.positives().size(), 0u);

  const std::string data_path = TestTempPath("restaurant.csv");
  const std::string links_path = TestTempPath("links.csv");
  const std::string rule_path = TestTempPath("rule.xml");
  ASSERT_TRUE(WriteStringToFile(data_path, DatasetToCsv(task.Source())).ok());
  ASSERT_TRUE(WriteStringToFile(links_path, WriteLinksCsv(task.links)).ok());

  // Restaurant is a deduplication task: source is matched against
  // itself, so the same file serves as both sides.
  const std::string command = g_cli_path + " learn --source " + data_path +
                              " --target " + data_path + " --links " +
                              links_path + " --out " + rule_path +
                              " --population 50 --iterations 3 --seed 7";
  const int exit_code = std::system(command.c_str());
  ASSERT_EQ(exit_code, 0) << "command failed: " << command;

  auto xml = ReadFileToString(rule_path);
  ASSERT_TRUE(xml.ok()) << "CLI did not write " << rule_path;
  auto rule = ParseRuleXml(*xml);
  ASSERT_TRUE(rule.ok()) << "rule does not parse: "
                         << rule.status().ToString();
  EXPECT_NE(rule->root(), nullptr);

  std::remove(data_path.c_str());
  std::remove(links_path.c_str());
  std::remove(rule_path.c_str());
}

TEST(CliSmokeTest, LearnWithMatchWritesFullDatasetLinks) {
  ASSERT_FALSE(g_cli_path.empty())
      << "pass the genlink_cli path as argv[1] (CTest does this)";

  RestaurantConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateRestaurant(config);

  const std::string data_path = TestTempPath("match_restaurant.csv");
  const std::string links_path = TestTempPath("match_links.csv");
  const std::string rule_path = TestTempPath("match_rule.xml");
  const std::string out_path = TestTempPath("match_out.nt");
  ASSERT_TRUE(WriteStringToFile(data_path, DatasetToCsv(task.Source())).ok());
  ASSERT_TRUE(WriteStringToFile(links_path, WriteLinksCsv(task.links)).ok());

  // learn --match: learn, then link the FULL datasets with the learned
  // rule through the value-store matcher and write owl:sameAs triples.
  const std::string command = g_cli_path + " learn --source " + data_path +
                              " --target " + data_path + " --links " +
                              links_path + " --out " + rule_path +
                              " --population 50 --iterations 3 --seed 7" +
                              " --match " + out_path;
  const int exit_code = std::system(command.c_str());
  ASSERT_EQ(exit_code, 0) << "command failed: " << command;

  auto triples = ReadFileToString(out_path);
  ASSERT_TRUE(triples.ok()) << "CLI did not write " << out_path;
  // The written links parse back as owl:sameAs N-Triples and are
  // non-empty (Restaurant at this scale always links some duplicates).
  auto parsed = ReadSameAsLinks(*triples);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed->positives().size(), 0u);

  std::remove(data_path.c_str());
  std::remove(links_path.c_str());
  std::remove(rule_path.c_str());
  std::remove(out_path.c_str());
}

// Runs `command`, capturing stdout+stderr into *output. Returns the
// exit code (-1 if the process could not be run).
int RunCapture(const std::string& command, std::string* output) {
  const std::string capture_path = TestTempPath("capture.txt");
  const int code = std::system((command + " > " + capture_path + " 2>&1").c_str());
  auto content = ReadFileToString(capture_path);
  *output = content.ok() ? *content : "";
  std::remove(capture_path.c_str());
  if (code == -1) return -1;
  return WEXITSTATUS(code);
}

// `gen` without --deltas writes the three corpus files and no delta
// stream: the delta generator's default count is not a request for one
// (and there is no --out-deltas to write it to).
TEST(CliSmokeTest, GenWithoutDeltasWritesOnlyTheCorpus) {
  const std::string dir = TestTempDir();
  const std::string command =
      g_cli_path + " gen --out-source " + dir + "s.csv --out-target " + dir +
      "t.csv --out-links " + dir + "l.csv --entities 400 --threads 2";
  std::string output;
  ASSERT_EQ(RunCapture(command, &output), 0) << command << "\n" << output;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"l.csv", "s.csv", "t.csv"}));
  for (const std::string& name : files) {
    auto content = ReadFileToString(dir + name);
    ASSERT_TRUE(content.ok()) << name;
    EXPECT_FALSE(content->empty()) << name;
  }
}

TEST(CliSmokeTest, VersionFlagPrintsVersion) {
  ASSERT_FALSE(g_cli_path.empty());
  std::string output;
  EXPECT_EQ(RunCapture(g_cli_path + " --version", &output), 0);
  EXPECT_NE(output.find("genlink "), std::string::npos) << output;
}

TEST(CliSmokeTest, EverySubcommandPrintsItsOwnHelp) {
  ASSERT_FALSE(g_cli_path.empty());
  for (const char* command : {"learn", "match", "query", "eval"}) {
    std::string output;
    EXPECT_EQ(RunCapture(g_cli_path + " " + command + " --help", &output), 0);
    EXPECT_NE(output.find(std::string("usage: genlink ") + command),
              std::string::npos)
        << command << " help:\n" << output;
  }
  // The top-level help lists all subcommands.
  std::string output;
  EXPECT_EQ(RunCapture(g_cli_path + " --help", &output), 0);
  for (const char* command : {"learn", "match", "query", "eval"}) {
    EXPECT_NE(output.find(command), std::string::npos) << output;
  }
}

TEST(CliSmokeTest, UnknownFlagErrorNamesTheFlag) {
  ASSERT_FALSE(g_cli_path.empty());
  std::string output;
  EXPECT_EQ(RunCapture(g_cli_path + " match --frobnicate 1", &output), 2);
  EXPECT_NE(output.find("--frobnicate"), std::string::npos) << output;
  EXPECT_NE(output.find("match --help"), std::string::npos) << output;

  // A value flag without its value names the flag too.
  EXPECT_EQ(RunCapture(g_cli_path + " match --rule", &output), 2);
  EXPECT_NE(output.find("--rule"), std::string::npos) << output;

  // Missing required flags are named.
  EXPECT_EQ(RunCapture(g_cli_path + " eval", &output), 2);
  EXPECT_NE(output.find("--source"), std::string::npos) << output;

  // Unknown subcommands fall back to the top-level usage.
  EXPECT_EQ(RunCapture(g_cli_path + " transmogrify", &output), 2);
  EXPECT_NE(output.find("transmogrify"), std::string::npos) << output;
}

TEST(CliSmokeTest, MalformedNumericFlagValuesAreRejectedByName) {
  ASSERT_FALSE(g_cli_path.empty());
  // Numeric flags are validated before any file is opened, so none of
  // these need real datasets; each must exit 2 naming the flag rather
  // than silently running with the default.
  struct Case {
    const char* command_line;
    const char* flag;
  };
  const Case cases[] = {
      {" match --source a --target b --rule r --threshold 0.7x",
       "--threshold"},
      {" match --source a --target b --rule r --threads lots", "--threads"},
      {" learn --source a --target b --links l --population many",
       "--population"},
      {" learn --source a --target b --links l --match-threshold abc",
       "--match-threshold"},
      {" query --target b --rule r --threshold ,5", "--threshold"},
      // Numbers that are not finite: `nan` compares false against every
      // score, so accepting it would exit 0 with no links at all.
      {" match --source a --target b --rule r --threshold nan",
       "--threshold"},
      {" query --target b --rule r --threshold -inf", "--threshold"},
  };
  for (const Case& c : cases) {
    std::string output;
    EXPECT_EQ(RunCapture(g_cli_path + c.command_line, &output), 2)
        << c.command_line << "\n" << output;
    EXPECT_NE(output.find(c.flag), std::string::npos)
        << c.command_line << "\n" << output;
  }
}

// The deployment loop end to end: learn a rule with --save-artifact,
// then serve CSV queries against it with `genlink query` and check the
// streamed links parse and cover some known duplicates.
TEST(CliSmokeTest, QueryServesArtifactLearnedByLearn) {
  ASSERT_FALSE(g_cli_path.empty());

  RestaurantConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateRestaurant(config);

  const std::string data_path = TestTempPath("query_restaurant.csv");
  const std::string links_path = TestTempPath("query_links.csv");
  const std::string artifact_path = TestTempPath("query_artifact.gla");
  const std::string out_path = TestTempPath("query_out.csv");
  ASSERT_TRUE(WriteStringToFile(data_path, DatasetToCsv(task.Source())).ok());
  ASSERT_TRUE(WriteStringToFile(links_path, WriteLinksCsv(task.links)).ok());

  const std::string learn_command =
      g_cli_path + " learn --source " + data_path + " --target " + data_path +
      " --links " + links_path + " --save-artifact " + artifact_path +
      " --population 50 --iterations 3 --seed 7 > /dev/null 2>&1";
  ASSERT_EQ(std::system(learn_command.c_str()), 0) << learn_command;

  // Serve the corpus itself as the query stream: duplicates should be
  // found in both orientations.
  std::string output;
  const int exit_code =
      RunCapture(g_cli_path + " query --target " + data_path + " --artifact " +
                     artifact_path + " --entities " + data_path + " --out " +
                     out_path,
                 &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("served "), std::string::npos) << output;

  auto csv = ReadFileToString(out_path);
  ASSERT_TRUE(csv.ok()) << "query did not write " << out_path;
  EXPECT_EQ(csv->rfind("id_a,id_b,score\n", 0), 0u) << *csv;
  // At least one known duplicate pair should have been served, and —
  // since the query stream IS the corpus — never a record as its own
  // match.
  size_t links_served = 0;
  std::istringstream rows(*csv);
  std::string row;
  std::getline(rows, row);  // header
  while (std::getline(rows, row)) {
    const size_t comma = row.find(',');
    ASSERT_NE(comma, std::string::npos) << row;
    const std::string id_a = row.substr(0, comma);
    const std::string rest = row.substr(comma + 1);
    EXPECT_NE(rest.rfind(id_a + ",", 0), 0u) << "self link served: " << row;
    ++links_served;
  }
  EXPECT_GT(links_served, 0u) << *csv;

  std::remove(data_path.c_str());
  std::remove(links_path.c_str());
  std::remove(artifact_path.c_str());
  std::remove(out_path.c_str());
}

// `genlink index` bakes the blocking knobs into the corpus artifact and
// `query --index` serves them: a weighted index queried with the plain
// learned artifact answers byte-identically to a fresh weighted build,
// and a blocking flag beside --index is refused by name.
TEST(CliSmokeTest, QueryIndexServesTheBlockingKnobsItWasIndexedWith) {
  ASSERT_FALSE(g_cli_path.empty());

  RestaurantConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateRestaurant(config);

  const std::string data_path = TestTempPath("knobs_restaurant.csv");
  const std::string links_path = TestTempPath("knobs_links.csv");
  const std::string artifact_path = TestTempPath("knobs_artifact.gla");
  const std::string index_path = TestTempPath("knobs_index.glidx");
  const std::string from_index_path = TestTempPath("knobs_from_index.csv");
  const std::string from_target_path = TestTempPath("knobs_from_target.csv");
  ASSERT_TRUE(WriteStringToFile(data_path, DatasetToCsv(task.Source())).ok());
  ASSERT_TRUE(WriteStringToFile(links_path, WriteLinksCsv(task.links)).ok());

  const std::string learn_command =
      g_cli_path + " learn --source " + data_path + " --target " + data_path +
      " --links " + links_path + " --save-artifact " + artifact_path +
      " --population 50 --iterations 3 --seed 7 > /dev/null 2>&1";
  ASSERT_EQ(std::system(learn_command.c_str()), 0) << learn_command;

  std::string output;
  ASSERT_EQ(RunCapture(g_cli_path + " index --target " + data_path +
                           " --artifact " + artifact_path + " --out " +
                           index_path + " --blocking-top-tokens 4",
                       &output),
            0)
      << output;
  const std::string query = g_cli_path + " query --artifact " + artifact_path +
                            " --entities " + data_path;
  ASSERT_EQ(RunCapture(query + " --index " + index_path + " --out " +
                           from_index_path,
                       &output),
            0)
      << output;
  ASSERT_EQ(RunCapture(query + " --target " + data_path +
                           " --blocking-top-tokens 4 --out " +
                           from_target_path,
                       &output),
            0)
      << output;
  auto from_index = ReadFileToString(from_index_path);
  auto from_target = ReadFileToString(from_target_path);
  ASSERT_TRUE(from_index.ok() && from_target.ok());
  EXPECT_GT(from_index->size(), std::string("id_a,id_b,score\n").size())
      << *from_index;
  EXPECT_EQ(*from_index, *from_target);

  EXPECT_EQ(RunCapture(query + " --index " + index_path +
                           " --blocking-top-tokens 4",
                       &output),
            2);
  EXPECT_NE(output.find("--blocking-top-tokens"), std::string::npos) << output;
  EXPECT_NE(output.find("blocking knobs"), std::string::npos) << output;

  for (const std::string& path :
       {data_path, links_path, artifact_path, index_path, from_index_path,
        from_target_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace genlink

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) genlink::g_cli_path = argv[1];
  return RUN_ALL_TESTS();
}
