// Tests for the tree-based bidding language: lexer, parser, flattener.
#include <gtest/gtest.h>

#include "bid/tbbl_flatten.h"
#include "bid/tbbl_lexer.h"
#include "bid/tbbl_parser.h"

namespace pm::bid {
namespace {

// ------------------------------------------------------------------ lexer --

TEST(LexerTest, TokenizesPunctuationAndKeywords) {
  const auto tokens = Tokenize("bid offer limit min xor and { } : @");
  ASSERT_EQ(tokens.size(), 11u);  // 10 tokens + end.
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwBid);
  EXPECT_EQ(tokens[1].kind, TokenKind::kKwOffer);
  EXPECT_EQ(tokens[2].kind, TokenKind::kKwLimit);
  EXPECT_EQ(tokens[3].kind, TokenKind::kKwMin);
  EXPECT_EQ(tokens[4].kind, TokenKind::kKwXor);
  EXPECT_EQ(tokens[5].kind, TokenKind::kKwAnd);
  EXPECT_EQ(tokens[6].kind, TokenKind::kLBrace);
  EXPECT_EQ(tokens[7].kind, TokenKind::kRBrace);
  EXPECT_EQ(tokens[8].kind, TokenKind::kColon);
  EXPECT_EQ(tokens[9].kind, TokenKind::kAt);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, NumbersWithSignsAndFractions) {
  const auto tokens = Tokenize("12 -3.5 +0.25");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_DOUBLE_EQ(tokens[0].number, 12.0);
  EXPECT_DOUBLE_EQ(tokens[1].number, -3.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.25);
}

TEST(LexerTest, StringsWithEscapes) {
  const auto tokens = Tokenize(R"("team \"x\" \\ one")");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "team \"x\" \\ one");
}

TEST(LexerTest, UnterminatedStringIsError) {
  const auto tokens = Tokenize("\"oops");
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
}

TEST(LexerTest, CommentsAndCommasIgnored) {
  const auto tokens = Tokenize("cpu, ram # trailing comment\ndisk");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "cpu");
  EXPECT_EQ(tokens[1].text, "ram");
  EXPECT_EQ(tokens[2].text, "disk");
}

TEST(LexerTest, TracksLineAndColumn) {
  const auto tokens = Tokenize("a\n  b");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, IdentifiersAllowDashDotUnderscore) {
  const auto tokens = Tokenize("cluster-7.prod_x");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "cluster-7.prod_x");
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  const auto tokens = Tokenize("cpu $ ram");
  bool saw_error = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kError) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

// ----------------------------------------------------------------- parser --

TEST(ParserTest, ParsesMinimalBid) {
  const ParseResult r =
      ParseTbbl(R"(bid "t1" limit 100 { cpu@c1: 10 })");
  ASSERT_TRUE(r.ok()) << r.errors[0].ToString();
  ASSERT_EQ(r.statements.size(), 1u);
  const TbblStatement& s = r.statements[0];
  EXPECT_FALSE(s.is_offer);
  EXPECT_EQ(s.name, "t1");
  EXPECT_DOUBLE_EQ(s.amount, 100.0);
  EXPECT_EQ(s.root->kind, TbblKind::kLeaf);
  EXPECT_EQ(s.root->cluster, "c1");
  EXPECT_DOUBLE_EQ(s.root->qty, 10.0);
}

TEST(ParserTest, ParsesNestedXorAnd) {
  const ParseResult r = ParseTbbl(R"(
    bid "t" limit 500 {
      xor {
        and { cpu@a: 10 ram@a: 20 }
        and { cpu@b: 12 ram@b: 20 }
      }
    })");
  ASSERT_TRUE(r.ok()) << r.errors[0].ToString();
  const TbblNode& root = *r.statements[0].root;
  EXPECT_EQ(root.kind, TbblKind::kXor);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->kind, TbblKind::kAnd);
  EXPECT_EQ(root.children[0]->children.size(), 2u);
}

TEST(ParserTest, ParsesOfferWithMin) {
  const ParseResult r =
      ParseTbbl(R"(offer "s" min 30 { disk@c1: 500 })");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.statements[0].is_offer);
  EXPECT_DOUBLE_EQ(r.statements[0].amount, 30.0);
}

TEST(ParserTest, ParsesMultipleStatements) {
  const ParseResult r = ParseTbbl(R"(
    bid "a" limit 1 { cpu@x: 1 }
    offer "b" min 2 { ram@y: 3 }
  )");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.statements.size(), 2u);
}

TEST(ParserTest, RejectsNegativeAmount) {
  const ParseResult r =
      ParseTbbl(R"(bid "t" limit -5 { cpu@c: 1 })");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("non-negative"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownResourceKind) {
  const ParseResult r = ParseTbbl(R"(bid "t" limit 5 { gpu@c: 1 })");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("gpu"), std::string::npos);
}

TEST(ParserTest, RejectsZeroQuantity) {
  const ParseResult r = ParseTbbl(R"(bid "t" limit 5 { cpu@c: 0 })");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, RejectsEmptyCombinator) {
  const ParseResult r = ParseTbbl(R"(bid "t" limit 5 { xor { } })");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, RejectsMissingName) {
  const ParseResult r = ParseTbbl(R"(bid limit 5 { cpu@c: 1 })");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, RejectsWrongAmountKeyword) {
  // "min" belongs to offers, "limit" to bids.
  EXPECT_FALSE(ParseTbbl(R"(bid "t" min 5 { cpu@c: 1 })").ok());
  EXPECT_FALSE(ParseTbbl(R"(offer "t" limit 5 { cpu@c: 1 })").ok());
}

TEST(ParserTest, RejectsUnterminatedBlock) {
  const ParseResult r = ParseTbbl(R"(bid "t" limit 5 { xor { cpu@c: 1 )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, ErrorCarriesLocation) {
  const ParseResult r = ParseTbbl("bid \"t\" limit 5 {\n  gpu@c: 1 }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line, 2);
}

TEST(ParserTest, EmptyInputIsOkAndEmpty) {
  const ParseResult r = ParseTbbl("  # nothing here\n");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.statements.empty());
}

// ------------------------------------------------------------------- AST --

TEST(AstTest, CountAlternativesProductsAndSums) {
  // xor{leaf leaf} = 2; and{xor2, xor2} = 4; xor{and4, leaf} = 5.
  const ParseResult r = ParseTbbl(R"(
    bid "t" limit 1 {
      xor {
        and {
          xor { cpu@a: 1 cpu@b: 1 }
          xor { ram@a: 1 ram@b: 1 }
        }
        disk@c: 1
      }
    })");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.statements[0].root->CountAlternatives(1000), 5u);
}

TEST(AstTest, CountAlternativesSaturatesAtCap) {
  // and of 10 xor-pairs = 1024 alternatives; cap at 100.
  std::string src = "bid \"t\" limit 1 { and {";
  for (int i = 0; i < 10; ++i) {
    src += " xor { cpu@a: 1 cpu@b: 1 }";
  }
  src += " } }";
  const ParseResult r = ParseTbbl(src);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.statements[0].root->CountAlternatives(100), 100u);
  EXPECT_EQ(r.statements[0].root->CountAlternatives(2000), 1024u);
}

TEST(AstTest, ToStringRoundTripsThroughParser) {
  const ParseResult r = ParseTbbl(
      R"(bid "t" limit 1 { xor { and { cpu@a: 2 ram@a: 4 } disk@b: 1 } })");
  ASSERT_TRUE(r.ok());
  const std::string rendered = r.statements[0].root->ToString();
  EXPECT_NE(rendered.find("xor {"), std::string::npos);
  EXPECT_NE(rendered.find("cpu@a: 2"), std::string::npos);
}

// -------------------------------------------------------------- flattener --

TEST(FlattenTest, LeafBecomesSingleBundle) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(bid "t" limit 10 { cpu@c1: 5 })", reg);
  ASSERT_TRUE(out.ok()) << out.error;
  ASSERT_EQ(out.bids.size(), 1u);
  ASSERT_EQ(out.bids[0].bundles.size(), 1u);
  EXPECT_DOUBLE_EQ(out.bids[0].limit, 10.0);
  const auto id = reg.Find(PoolKey{"c1", ResourceKind::kCpu});
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(out.bids[0].bundles[0].QuantityOf(*id), 5.0);
}

TEST(FlattenTest, XorProducesAlternatives) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(bid "t" limit 10 { xor { cpu@a: 1 cpu@b: 2 } })", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bids[0].bundles.size(), 2u);
}

TEST(FlattenTest, AndSumsChildren) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(bid "t" limit 10 { and { cpu@a: 1 ram@a: 2 disk@a: 3 } })", reg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.bids[0].bundles.size(), 1u);
  EXPECT_EQ(out.bids[0].bundles[0].Size(), 3u);
}

TEST(FlattenTest, AndOfXorsIsCartesianProduct) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(R"(
    bid "t" limit 10 {
      and {
        xor { cpu@a: 1 cpu@b: 1 }
        xor { ram@a: 2 ram@b: 2 }
      }
    })", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bids[0].bundles.size(), 4u);
}

TEST(FlattenTest, OfferNegatesQuantitiesAndLimit) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(offer "s" min 25 { disk@c1: 100 })", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.bids[0].limit, -25.0);
  const auto id = reg.Find(PoolKey{"c1", ResourceKind::kDisk});
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(out.bids[0].bundles[0].QuantityOf(*id), -100.0);
}

TEST(FlattenTest, ExplosionGuardRejectsHugeTrees) {
  std::string src = "bid \"t\" limit 1 { and {";
  for (int i = 0; i < 16; ++i) src += " xor { cpu@a: 1 cpu@b: 1 }";
  src += " } }";
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(src, reg, /*max_bundles=*/1000);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("more than 1000"), std::string::npos);
}

TEST(FlattenTest, DuplicateAlternativesDeduplicated) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(bid "t" limit 1 { xor { cpu@a: 1 cpu@a: 1 } })", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bids[0].bundles.size(), 1u);
}

TEST(FlattenTest, CancellingAndIsRejected) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(
      R"(bid "t" limit 1 { and { cpu@a: 1 cpu@a: -1 } })", reg);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("cancels"), std::string::npos);
}

TEST(FlattenTest, ParseErrorsPropagate) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids("bid gibberish", reg);
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(out.error.empty());
}

TEST(FlattenTest, UserIdsAssignedInFileOrder) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(R"(
    bid "first" limit 1 { cpu@a: 1 }
    bid "second" limit 2 { cpu@a: 2 }
  )", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bids[0].user, 0u);
  EXPECT_EQ(out.bids[1].user, 1u);
  EXPECT_EQ(out.bids[0].name, "first");
}

TEST(FlattenTest, SharedRegistryAcrossStatements) {
  PoolRegistry reg;
  const FlattenOutcome out = CompileBids(R"(
    bid "a" limit 1 { cpu@x: 1 }
    bid "b" limit 1 { cpu@x: 2 }
  )", reg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(reg.size(), 1u);  // Same pool interned once.
}

}  // namespace
}  // namespace pm::bid
