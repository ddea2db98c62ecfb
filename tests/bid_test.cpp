// Tests for pm::bid bundles and bids (the §II preference model).
#include <gtest/gtest.h>

#include "bid/bid.h"
#include "bid/bundle.h"
#include "common/check.h"

namespace pm::bid {
namespace {

TEST(BundleTest, DefaultIsEmpty) {
  Bundle b;
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.MinVectorSize(), 0u);
}

TEST(BundleTest, CanonicalizesSortedUniqueNonzero) {
  Bundle b({{3, 5.0}, {1, 2.0}, {3, -1.0}, {2, 0.0}});
  ASSERT_EQ(b.Size(), 2u);
  EXPECT_EQ(b.items()[0].pool, 1u);
  EXPECT_EQ(b.items()[0].qty, 2.0);
  EXPECT_EQ(b.items()[1].pool, 3u);
  EXPECT_EQ(b.items()[1].qty, 4.0);  // 5 - 1 merged.
}

TEST(BundleTest, CancellingItemsVanish) {
  Bundle b({{0, 2.0}, {0, -2.0}});
  EXPECT_TRUE(b.Empty());
}

TEST(BundleTest, QuantityOfAbsentPoolIsZero) {
  Bundle b({{2, 7.0}});
  EXPECT_EQ(b.QuantityOf(2), 7.0);
  EXPECT_EQ(b.QuantityOf(1), 0.0);
  EXPECT_EQ(b.QuantityOf(99), 0.0);
}

TEST(BundleTest, DotComputesCost) {
  Bundle b({{0, 2.0}, {2, -1.0}});
  const std::vector<double> prices = {10.0, 99.0, 4.0};
  EXPECT_DOUBLE_EQ(b.Dot(prices), 2.0 * 10.0 - 1.0 * 4.0);
}

TEST(BundleTest, DotBeyondPriceVectorThrows) {
  Bundle b({{5, 1.0}});
  const std::vector<double> prices = {1.0, 2.0};
  EXPECT_THROW(b.Dot(prices), CheckFailure);
}

TEST(BundleTest, AdditionMergesComponentWise) {
  const Bundle a({{0, 1.0}, {1, 2.0}});
  const Bundle b({{1, 3.0}, {2, -1.0}});
  const Bundle sum = a + b;
  EXPECT_EQ(sum.QuantityOf(0), 1.0);
  EXPECT_EQ(sum.QuantityOf(1), 5.0);
  EXPECT_EQ(sum.QuantityOf(2), -1.0);
}

TEST(BundleTest, NegationFlipsEverySign) {
  const Bundle a({{0, 1.5}, {4, -2.0}});
  const Bundle n = -a;
  EXPECT_EQ(n.QuantityOf(0), -1.5);
  EXPECT_EQ(n.QuantityOf(4), 2.0);
}

TEST(BundleTest, NonFiniteQuantityThrows) {
  EXPECT_THROW(
      Bundle({{0, std::numeric_limits<double>::infinity()}}),
      CheckFailure);
}

TEST(BundleTest, ToStringUsesPoolNames) {
  PoolRegistry reg;
  const PoolId cpu = reg.Intern("c1", ResourceKind::kCpu);
  Bundle b({{cpu, 20.0}});
  EXPECT_EQ(b.ToString(reg), "{cpu@c1: 20}");
}

TEST(BundleTest, AccumulateInto) {
  std::vector<double> dense(3, 1.0);
  AccumulateInto(Bundle({{0, 2.0}, {2, -0.5}}), dense);
  EXPECT_DOUBLE_EQ(dense[0], 3.0);
  EXPECT_DOUBLE_EQ(dense[1], 1.0);
  EXPECT_DOUBLE_EQ(dense[2], 0.5);
}

// ----------------------------------------------------------------- bids --

Bid MakeBuyBid(double limit = 100.0) {
  Bid b;
  b.user = 0;
  b.name = "buyer";
  b.bundles = {Bundle({{0, 5.0}})};
  b.limit = limit;
  return b;
}

TEST(BidTest, ClassifiesBuyerSellerTrader) {
  Bid buyer = MakeBuyBid();
  EXPECT_EQ(ClassifyBid(buyer), BidSide::kBuyer);

  Bid seller;
  seller.bundles = {Bundle({{0, -5.0}})};
  seller.limit = -10.0;
  EXPECT_EQ(ClassifyBid(seller), BidSide::kSeller);

  Bid trader;
  trader.bundles = {Bundle({{0, 5.0}, {1, -5.0}})};
  EXPECT_EQ(ClassifyBid(trader), BidSide::kTrader);

  // XOR across pure-buy and pure-sell alternatives is also a trader.
  Bid mixed;
  mixed.bundles = {Bundle({{0, 5.0}}), Bundle({{1, -5.0}})};
  EXPECT_EQ(ClassifyBid(mixed), BidSide::kTrader);
}

TEST(BidTest, ToStringOfSides) {
  EXPECT_EQ(ToString(BidSide::kBuyer), "buyer");
  EXPECT_EQ(ToString(BidSide::kSeller), "seller");
  EXPECT_EQ(ToString(BidSide::kTrader), "trader");
}

TEST(BidValidateTest, AcceptsWellFormedBid) {
  EXPECT_EQ(ValidateBid(MakeBuyBid(), 1), "");
}

TEST(BidValidateTest, RejectsNoBundles) {
  Bid b = MakeBuyBid();
  b.bundles.clear();
  EXPECT_NE(ValidateBid(b, 1), "");
}

TEST(BidValidateTest, RejectsEmptyBundle) {
  Bid b = MakeBuyBid();
  b.bundles.push_back(Bundle());
  EXPECT_NE(ValidateBid(b, 1), "");
}

TEST(BidValidateTest, RejectsNonFiniteLimit) {
  Bid b = MakeBuyBid(std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(ValidateBid(b, 1), "");
}

TEST(BidValidateTest, RejectsOutOfRangePool) {
  Bid b = MakeBuyBid();
  b.bundles = {Bundle({{7, 1.0}})};
  EXPECT_NE(ValidateBid(b, 3), "");
  EXPECT_EQ(ValidateBid(b, 8), "");
}

TEST(BidValidateTest, RejectsBuyerWithNonPositiveLimit) {
  EXPECT_NE(ValidateBid(MakeBuyBid(0.0), 1), "");
  EXPECT_NE(ValidateBid(MakeBuyBid(-5.0), 1), "");
}

TEST(BidValidateTest, RejectsSellerWithPositiveLimit) {
  Bid seller;
  seller.user = 0;
  seller.name = "s";
  seller.bundles = {Bundle({{0, -3.0}})};
  seller.limit = 5.0;
  EXPECT_NE(ValidateBid(seller, 1), "");
  seller.limit = -5.0;
  EXPECT_EQ(ValidateBid(seller, 1), "");
}

TEST(BidValidateTest, SellerWithZeroLimitIsFine) {
  // "Sell at any price" is legal (the lowball sellers of §V.C).
  Bid seller;
  seller.user = 0;
  seller.bundles = {Bundle({{0, -3.0}})};
  seller.limit = 0.0;
  EXPECT_EQ(ValidateBid(seller, 1), "");
}

TEST(BidValidateTest, ValidateBidsCatchesDuplicateUsers) {
  std::vector<Bid> bids = {MakeBuyBid(), MakeBuyBid()};
  bids[0].user = 0;
  bids[1].user = 0;
  EXPECT_NE(ValidateBids(bids, 1), "");
}

TEST(BidValidateTest, ValidateBidsCatchesUnassignedIds) {
  std::vector<Bid> bids = {MakeBuyBid()};
  bids[0].user = kInvalidUser;
  EXPECT_NE(ValidateBids(bids, 1), "");
}

TEST(BidValidateTest, AssignUserIdsMakesSetValid) {
  std::vector<Bid> bids = {MakeBuyBid(), MakeBuyBid(), MakeBuyBid()};
  AssignUserIds(bids);
  EXPECT_EQ(ValidateBids(bids, 1), "");
  EXPECT_EQ(bids[2].user, 2u);
}

}  // namespace
}  // namespace pm::bid
