// Unit tests for the IO module: CSV, N-Triples and link files.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "io/link_io.h"
#include "io/ntriples.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

// -------------------------------------------------------------------- CSV

TEST(CsvTest, BasicRows) {
  auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, QuotedFieldsWithSeparatorsAndNewlines) {
  auto rows = ParseCsv("\"a,b\",\"line1\nline2\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "line1\nline2");
  EXPECT_EQ((*rows)[0][2], "he said \"hi\"");
}

TEST(CsvTest, CrLfAndMissingFinalNewline) {
  auto rows = ParseCsv("a,b\r\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto rows = ParseCsv("\"oops");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, WriteReadRoundTrip) {
  std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote"},
      {"line\nbreak", "", "end"},
  };
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, ReadDataset) {
  CsvDatasetOptions options;
  options.id_column = "id";
  options.value_separator = '|';
  auto ds = ReadCsvDataset("id,name,tags\nr1,Alpha,x|y\nr2,Beta,\n", "test",
                           options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  const Entity* r1 = ds->FindEntity("r1");
  ASSERT_NE(r1, nullptr);
  auto name = ds->schema().FindProperty("name");
  auto tags = ds->schema().FindProperty("tags");
  ASSERT_TRUE(name && tags);
  EXPECT_EQ(r1->Values(*name), (ValueSet{"Alpha"}));
  EXPECT_EQ(r1->Values(*tags), (ValueSet{"x", "y"}));
  EXPECT_TRUE(ds->FindEntity("r2")->Values(*tags).empty());
}

TEST(CsvTest, ReadDatasetMissingIdColumnFails) {
  CsvDatasetOptions options;
  options.id_column = "id";
  auto ds = ReadCsvDataset("name\nAlpha\n", "test", options);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kNotFound);
}

// -------------------------------------------------------------- N-Triples

// The incremental reader behind `genlink query` must decode records
// exactly like the batch loader (same header mapping, same cell
// semantics), including quoted fields spanning lines.
TEST(CsvEntityStreamTest, MatchesBatchLoadRecordForRecord) {
  const std::string csv =
      "id,name,notes\n"
      "r1,Alpha,\"multi\nline, note\"\n"
      "r2,Beta,\n"
      "r3,\"Quoted \"\"Name\"\"\",plain\n";
  CsvDatasetOptions options;
  options.id_column = "id";
  auto batch = ReadCsvDataset(csv, "batch", options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::istringstream in(csv);
  CsvEntityStream stream(in, options);
  ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
  ASSERT_EQ(stream.schema().property_names(),
            batch->schema().property_names());

  Entity entity;
  size_t index = 0;
  while (stream.Next(&entity)) {
    ASSERT_LT(index, batch->size());
    const Entity& expected = batch->entity(index);
    EXPECT_EQ(entity.id(), expected.id());
    for (PropertyId p = 0; p < stream.schema().NumProperties(); ++p) {
      EXPECT_EQ(entity.Values(p), expected.Values(p)) << entity.id();
    }
    ++index;
  }
  EXPECT_TRUE(stream.status().ok());
  EXPECT_EQ(index, batch->size());
}

// A literal '"' inside an unquoted field (`5" nail`) is a literal
// character to ParseCsv, not an open quote — the stream must not glue
// the rest of the input into one record and drop the later queries.
TEST(CsvEntityStreamTest, LiteralQuoteInUnquotedFieldDoesNotEatLaterRows) {
  const std::string csv =
      "id,name\n"
      "q1,5\" nail\n"
      "q2,hammer\n"
      "q3,saw\n";
  CsvDatasetOptions options;
  options.id_column = "id";
  auto batch = ReadCsvDataset(csv, "batch", options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);

  std::istringstream in(csv);
  CsvEntityStream stream(in, options);
  ASSERT_TRUE(stream.status().ok());
  Entity entity;
  std::vector<std::string> ids;
  std::vector<std::string> names;
  while (stream.Next(&entity)) {
    ids.push_back(entity.id());
    names.push_back(entity.Values(0).empty() ? "" : entity.Values(0)[0]);
  }
  EXPECT_TRUE(stream.status().ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"q1", "q2", "q3"}));
  EXPECT_EQ(names[0], "5\" nail");
}

// A bare '\r' is a row terminator to ParseCsv, so one input line can
// hold two rows — both must be served, matching the batch loader.
TEST(CsvEntityStreamTest, BareCarriageReturnYieldsBothRows) {
  const std::string csv = "id,name\nq1,alpha\rq2,beta\n";
  CsvDatasetOptions options;
  options.id_column = "id";
  auto batch = ReadCsvDataset(csv, "batch", options);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);

  std::istringstream in(csv);
  CsvEntityStream stream(in, options);
  ASSERT_TRUE(stream.status().ok());
  Entity entity;
  std::vector<std::string> ids;
  while (stream.Next(&entity)) ids.push_back(entity.id());
  EXPECT_TRUE(stream.status().ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"q1", "q2"}));
}

TEST(CsvEntityStreamTest, SkipsBlankLinesAndAllowsDuplicateIds) {
  std::istringstream in("id,name\n\nq1,Alpha\n\n\nq1,Alpha again\n");
  CsvDatasetOptions options;
  options.id_column = "id";
  CsvEntityStream stream(in, options);
  ASSERT_TRUE(stream.status().ok());
  Entity entity;
  std::vector<std::string> ids;
  while (stream.Next(&entity)) ids.push_back(entity.id());
  EXPECT_TRUE(stream.status().ok());
  // A query stream is not a dataset: the repeated id is served twice.
  EXPECT_EQ(ids, (std::vector<std::string>{"q1", "q1"}));
}

TEST(CsvEntityStreamTest, MissingHeaderOrIdColumnFails) {
  CsvDatasetOptions options;
  options.id_column = "id";
  std::istringstream empty("");
  EXPECT_FALSE(CsvEntityStream(empty, options).status().ok());
  std::istringstream no_id("name\nAlpha\n");
  EXPECT_FALSE(CsvEntityStream(no_id, options).status().ok());
}

TEST(NTriplesTest, ParsesLiteralTriple) {
  auto t = ParseNTriplesLine(
      "<http://ex.org/e1> <http://ex.org/name> \"Alice \\\"A\\\"\" .");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->subject, "http://ex.org/e1");
  EXPECT_EQ(t->predicate, "http://ex.org/name");
  EXPECT_EQ(t->object, "Alice \"A\"");
  EXPECT_FALSE(t->object_is_iri);
}

TEST(NTriplesTest, ParsesIriTripleAndLangTag) {
  auto t1 = ParseNTriplesLine("<http://a> <http://p> <http://b> .");
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(t1->object_is_iri);

  auto t2 = ParseNTriplesLine("<http://a> <http://p> \"hi\"@en .");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->object, "hi");

  auto t3 = ParseNTriplesLine(
      "<http://a> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->object, "5");
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  EXPECT_EQ(ParseNTriplesLine("# comment").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseNTriplesLine("   ").status().code(), StatusCode::kNotFound);
}

TEST(NTriplesTest, RejectsMalformed) {
  EXPECT_EQ(ParseNTriplesLine("not a triple").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseNTriplesLine("<a> <b>").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseNTriplesLine("<a> <b> \"unterminated .").status().code(),
            StatusCode::kParseError);
}

TEST(NTriplesTest, IriLocalNames) {
  EXPECT_EQ(IriLocalName("http://xmlns.com/foaf/0.1/name"), "name");
  EXPECT_EQ(IriLocalName("http://ex.org/onto#label"), "label");
  EXPECT_EQ(IriLocalName("plain"), "plain");
}

TEST(NTriplesTest, ReadDatasetGroupsBySubject) {
  const char* nt =
      "<http://ex.org/e1> <http://ex.org/name> \"Alice\" .\n"
      "# a comment\n"
      "<http://ex.org/e1> <http://ex.org/age> \"30\" .\n"
      "<http://ex.org/e2> <http://ex.org/name> \"Bob\" .\n";
  auto ds = ReadNTriplesDataset(nt, "people");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  auto name = ds->schema().FindProperty("name");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(ds->FindEntity("http://ex.org/e1")->Values(*name), (ValueSet{"Alice"}));
}

// ------------------------------------------------------------------ links

TEST(LinkIoTest, CsvRoundTrip) {
  ReferenceLinkSet links;
  links.AddPositive("a1", "b1");
  links.AddNegative("a2", "b2");
  auto parsed = ReadLinksCsv(WriteLinksCsv(links));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->positives().size(), 1u);
  ASSERT_EQ(parsed->negatives().size(), 1u);
  EXPECT_EQ(parsed->positives()[0].id_a, "a1");
  EXPECT_EQ(parsed->negatives()[0].id_b, "b2");
}

TEST(LinkIoTest, LinksWithoutLabelArePositive) {
  auto parsed = ReadLinksCsv("id_a,id_b\nx,y\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->positives().size(), 1u);
}

TEST(LinkIoTest, SameAsRoundTrip) {
  ReferenceLinkSet links;
  links.AddPositive("http://a/1", "http://b/1");
  links.AddPositive("http://a/2", "http://b/2");
  auto parsed = ReadSameAsLinks(WriteSameAsLinks(links));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->positives().size(), 2u);
  EXPECT_EQ(parsed->positives()[1].id_b, "http://b/2");
}

TEST(FileIoTest, WriteAndReadBack) {
  std::string path = TestTempPath("io_test.txt");
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld");
}

TEST(FileIoTest, MissingFileFails) {
  auto content = ReadFileToString("/nonexistent/genlink/file");
  EXPECT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace genlink
