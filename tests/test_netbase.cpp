#include <gtest/gtest.h>

#include <sstream>

#include "netbase/ipv4.h"
#include "netbase/label.h"
#include "netbase/rng.h"
#include "netbase/stats.h"

namespace wormhole::netbase {
namespace {

TEST(Ipv4Address, ParsesDottedQuad) {
  const auto a = Ipv4Address::Parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0x0A010203u);
  EXPECT_EQ(a->ToString(), "10.1.2.3");
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse(" 1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4 ").has_value());
}

TEST(Ipv4Address, RoundTripsThroughText) {
  for (const std::uint32_t v :
       {0u, 1u, 0xFFFFFFFFu, 0x05010203u, 0xC0A80101u}) {
    const Ipv4Address a(v);
    const auto parsed = Ipv4Address::Parse(a.ToString());
    ASSERT_TRUE(parsed.has_value()) << a.ToString();
    EXPECT_EQ(parsed->value(), v);
  }
}

TEST(Ipv4Address, DetectsPrivateRanges) {
  EXPECT_TRUE(Ipv4Address(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 31, 255, 255).is_private());
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 1).is_private());
  EXPECT_FALSE(Ipv4Address(172, 32, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Address(11, 0, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Address(5, 0, 0, 1).is_private());
}

TEST(Ipv4Address, OrdersByValue) {
  EXPECT_LT(Ipv4Address(1, 0, 0, 0), Ipv4Address(2, 0, 0, 0));
  EXPECT_EQ(Ipv4Address(5, 1, 2, 3), Ipv4Address(0x05010203u));
}

TEST(Prefix, NormalisesHostBits) {
  const Prefix p(Ipv4Address(10, 1, 2, 3), 24);
  EXPECT_EQ(p.address(), Ipv4Address(10, 1, 2, 0));
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p.ToString(), "10.1.2.0/24");
}

TEST(Prefix, ContainsAddressesAndPrefixes) {
  const Prefix p(Ipv4Address(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.Contains(Ipv4Address(10, 1, 200, 7)));
  EXPECT_FALSE(p.Contains(Ipv4Address(10, 2, 0, 0)));
  EXPECT_TRUE(p.Contains(Prefix(Ipv4Address(10, 1, 3, 0), 24)));
  EXPECT_FALSE(p.Contains(Prefix(Ipv4Address(10, 0, 0, 0), 8)));
}

TEST(Prefix, HostPrefixIsSlash32) {
  const Prefix h = Prefix::Host(Ipv4Address(5, 0, 0, 9));
  EXPECT_TRUE(h.is_host());
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.Contains(Ipv4Address(5, 0, 0, 9)));
  EXPECT_FALSE(h.Contains(Ipv4Address(5, 0, 0, 8)));
}

TEST(Prefix, ParseRoundTrip) {
  const auto p = Prefix::Parse("5.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "5.1.0.0/16");
  EXPECT_FALSE(Prefix::Parse("5.1.0.0").has_value());
  EXPECT_FALSE(Prefix::Parse("5.1.0.0/33").has_value());
  EXPECT_FALSE(Prefix::Parse("5.1.0.0/-1").has_value());
}

TEST(Prefix, AtIndexesIntoPrefix) {
  const Prefix p(Ipv4Address(5, 0, 0, 0), 30);
  EXPECT_EQ(p.At(0), Ipv4Address(5, 0, 0, 0));
  EXPECT_EQ(p.At(3), Ipv4Address(5, 0, 0, 3));
  EXPECT_EQ(p.size(), 4u);
}

TEST(Label, ReservedValues) {
  EXPECT_TRUE(IsReserved(0));
  EXPECT_TRUE(IsReserved(3));
  EXPECT_TRUE(IsReserved(15));
  EXPECT_FALSE(IsReserved(kFirstUnreservedLabel));
}

TEST(Label, FormatsLikeFig4) {
  LabelStackEntry lse;
  lse.label = 19;
  lse.ttl = 1;
  EXPECT_EQ(ToString(lse), "Label 19 TTL=1");
}

TEST(IntDistribution, BasicMoments) {
  IntDistribution d;
  for (const int v : {1, 2, 2, 3, 3, 3}) d.Add(v);
  EXPECT_EQ(d.total(), 6u);
  EXPECT_DOUBLE_EQ(d.Mean(), 14.0 / 6.0);
  EXPECT_EQ(d.Median(), 2);
  EXPECT_EQ(d.Mode(), 3);
  EXPECT_EQ(d.Min(), 1);
  EXPECT_EQ(d.Max(), 3);
  EXPECT_DOUBLE_EQ(d.Pdf(2), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(d.Cdf(2), 0.5);
}

TEST(IntDistribution, QuantilesAndMerge) {
  IntDistribution a;
  IntDistribution b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.total(), 100u);
  EXPECT_EQ(a.Quantile(0.0), 1);
  EXPECT_EQ(a.Quantile(1.0), 100);
  EXPECT_NEAR(a.Quantile(0.5), 50, 1);
  EXPECT_NEAR(a.Quantile(0.9), 90, 1);
}

TEST(IntDistribution, EmptyThrowsOnQuantile) {
  const IntDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_THROW((void)d.Quantile(0.5), std::logic_error);
  EXPECT_THROW((void)d.Min(), std::logic_error);
}

TEST(IntDistribution, AsymmetryAroundCenter) {
  IntDistribution d;
  for (const int v : {-1, 0, 1}) d.Add(v);
  EXPECT_DOUBLE_EQ(d.AsymmetryAround(0), 0.0);
  d.Add(5);
  d.Add(6);
  EXPECT_GT(d.AsymmetryAround(0), 0.0);
}

TEST(NormalFit, RecognisesRoughlyNormalData) {
  IntDistribution d;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    d.Add(static_cast<int>(std::lround(rng.Normal(0.0, 3.0))));
  }
  const NormalFit fit = FitNormal(d);
  EXPECT_NEAR(fit.mean, 0.0, 0.1);
  EXPECT_NEAR(fit.stddev, 3.0, 0.1);
  EXPECT_NEAR(fit.within_one_sigma, 0.68, 0.08);
}

TEST(IntDistribution, ModeBreaksTiesTowardsSmallerValue) {
  IntDistribution d;
  d.Add(3, 5);
  d.Add(7, 5);
  EXPECT_EQ(d.Mode(), 3);
}

TEST(IntDistribution, WeightedAddAccumulates) {
  IntDistribution d;
  d.Add(2, 10);
  d.Add(2, 5);
  EXPECT_EQ(d.CountOf(2), 15u);
  EXPECT_EQ(d.total(), 15u);
}

TEST(FormatPdf, RendersFixedRange) {
  IntDistribution d;
  d.Add(1, 1);
  d.Add(2, 3);
  const std::string out = FormatPdf(d, 1, 3);
  EXPECT_NE(out.find("0.2500"), std::string::npos);
  EXPECT_NE(out.find("0.7500"), std::string::npos);
  EXPECT_NE(out.find("0.0000"), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, ParetoIntRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.ParetoInt(2.0, 10);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(11);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 10000; ++i) {
    counts[rng.WeightedIndex(weights)]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

}  // namespace
}  // namespace wormhole::netbase
