// Unit tests for the text substrate: case folding, tokenization, the
// Porter stemmer and Soundex.

#include <gtest/gtest.h>

#include "text/case_fold.h"
#include "text/porter_stemmer.h"
#include "text/soundex.h"
#include "text/tokenizer.h"

namespace genlink {
namespace {

TEST(CaseFoldTest, Lower) {
  EXPECT_EQ(ToLowerAscii("iPod 3G!"), "ipod 3g!");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(CaseFoldTest, Upper) { EXPECT_EQ(ToUpperAscii("iPod"), "IPOD"); }

TEST(CaseFoldTest, StripPunctuation) {
  EXPECT_EQ(StripPunctuation("a.b,c!d"), "abcd");
  EXPECT_EQ(StripPunctuation("no punct"), "no punct");
}

TEST(CaseFoldTest, IsAsciiDigits) {
  EXPECT_TRUE(IsAsciiDigits("0123"));
  EXPECT_FALSE(IsAsciiDigits("12a"));
  EXPECT_FALSE(IsAsciiDigits(""));
}

TEST(TokenizerTest, AlnumSplitsOnPunctuationAndSpace) {
  EXPECT_EQ(TokenizeAlnum("J. Doe (ed.)"),
            (std::vector<std::string>{"J", "Doe", "ed"}));
  EXPECT_EQ(TokenizeAlnum("a1-b2"), (std::vector<std::string>{"a1", "b2"}));
  EXPECT_TRUE(TokenizeAlnum("...").empty());
  EXPECT_TRUE(TokenizeAlnum("").empty());
}

TEST(TokenizerTest, WhitespaceKeepsPunctuation) {
  EXPECT_EQ(TokenizeWhitespace("J. Doe"),
            (std::vector<std::string>{"J.", "Doe"}));
}

TEST(PorterStemmerTest, ClassicExamples) {
  // Reference pairs from the original algorithm description.
  EXPECT_EQ(PorterStem("caresses"), "caress");
  EXPECT_EQ(PorterStem("ponies"), "poni");
  EXPECT_EQ(PorterStem("caress"), "caress");
  EXPECT_EQ(PorterStem("cats"), "cat");
  EXPECT_EQ(PorterStem("feed"), "feed");
  EXPECT_EQ(PorterStem("agreed"), "agre");
  EXPECT_EQ(PorterStem("plastered"), "plaster");
  EXPECT_EQ(PorterStem("motoring"), "motor");
  EXPECT_EQ(PorterStem("sing"), "sing");
  EXPECT_EQ(PorterStem("conflated"), "conflat");
  EXPECT_EQ(PorterStem("troubled"), "troubl");
  EXPECT_EQ(PorterStem("sized"), "size");
  EXPECT_EQ(PorterStem("hopping"), "hop");
  EXPECT_EQ(PorterStem("falling"), "fall");
  EXPECT_EQ(PorterStem("hissing"), "hiss");
  EXPECT_EQ(PorterStem("happy"), "happi");
  EXPECT_EQ(PorterStem("relational"), "relat");
  EXPECT_EQ(PorterStem("conditional"), "condit");
  EXPECT_EQ(PorterStem("rational"), "ration");
  EXPECT_EQ(PorterStem("digitizer"), "digit");
  EXPECT_EQ(PorterStem("operator"), "oper");
  EXPECT_EQ(PorterStem("triplicate"), "triplic");
  EXPECT_EQ(PorterStem("hopeful"), "hope");
  EXPECT_EQ(PorterStem("goodness"), "good");
  EXPECT_EQ(PorterStem("revival"), "reviv");
  EXPECT_EQ(PorterStem("adjustable"), "adjust");
  EXPECT_EQ(PorterStem("adoption"), "adopt");
  EXPECT_EQ(PorterStem("probate"), "probat");
  EXPECT_EQ(PorterStem("rate"), "rate");
  EXPECT_EQ(PorterStem("controll"), "control");
}

TEST(PorterStemmerTest, ShortAndNonAlphaUnchanged) {
  EXPECT_EQ(PorterStem("at"), "at");
  EXPECT_EQ(PorterStem("a1b"), "a1b");
  EXPECT_EQ(PorterStem("Mixed"), "Mixed");  // uppercase passes through
}

TEST(PorterStemmerTest, StemmingUnifiesInflections) {
  EXPECT_EQ(PorterStem("matching"), PorterStem("matched"));
  EXPECT_EQ(PorterStem("connection"), PorterStem("connections"));
}

TEST(SoundexTest, ClassicCodes) {
  EXPECT_EQ(Soundex("Robert"), "R163");
  EXPECT_EQ(Soundex("Rupert"), "R163");
  EXPECT_EQ(Soundex("Ashcraft"), "A261");
  EXPECT_EQ(Soundex("Ashcroft"), "A261");
  EXPECT_EQ(Soundex("Tymczak"), "T522");
  EXPECT_EQ(Soundex("Pfister"), "P236");
  EXPECT_EQ(Soundex("Honeyman"), "H555");
}

TEST(SoundexTest, EdgeCases) {
  EXPECT_EQ(Soundex(""), "");
  EXPECT_EQ(Soundex("123"), "");
  EXPECT_EQ(Soundex("a"), "A000");
  EXPECT_EQ(Soundex("robert"), "R163");  // case-insensitive
}

}  // namespace
}  // namespace genlink
