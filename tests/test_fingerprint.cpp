#include <gtest/gtest.h>

#include <string>

#include "fingerprint/signature.h"
#include "gen/gns3.h"
#include "probe/prober.h"

namespace wormhole::fingerprint {
namespace {

TEST(Signature, ClassifiesTable1) {
  EXPECT_EQ(Classify({255, 255}), SignatureClass::kCisco);
  EXPECT_EQ(Classify({255, 64}), SignatureClass::kJuniperJunos);
  EXPECT_EQ(Classify({128, 128}), SignatureClass::kJuniperJunosE);
  EXPECT_EQ(Classify({64, 64}), SignatureClass::kBrocadeLinux);
  EXPECT_EQ(Classify({128, 64}), SignatureClass::kUnknown);
}

TEST(Signature, RtlaUsability) {
  EXPECT_TRUE(UsableForRtla({255, 64}));
  EXPECT_TRUE(UsableForRtla({255, 128}));
  EXPECT_FALSE(UsableForRtla({255, 255}));
  EXPECT_FALSE(UsableForRtla({64, 64}));
  EXPECT_FALSE(UsableForRtla({0, 64}));
}

TEST(Signature, FormatsLikeTable1) {
  EXPECT_EQ((Signature{255, 64}).ToString(), "<255,64>");
}

// End-to-end: infer every AS2 router's signature through actual probing,
// for each vendor the testbed supports.
struct VendorCase {
  topo::Vendor vendor;
  SignatureClass expected;
};

class FingerprintVendorTest : public ::testing::TestWithParam<VendorCase> {};

TEST_P(FingerprintVendorTest, InfersVendorFromProbes) {
  const auto [vendor, expected] = GetParam();
  // Default scenario: the tunnel is explicit so traceroute elicits
  // time-exceeded from every LSR.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kDefault, .as2_vendor = vendor});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());

  SignatureCollector collector;
  const auto trace = prober.Traceroute(testbed.Address("CE2.left"));
  for (const auto& hop : trace.hops) {
    if (!hop.address) continue;
    collector.RecordTimeExceeded(*hop.address, hop.reply_ip_ttl);
    collector.EnsureEchoReply(prober, *hop.address);
  }

  // Every AS2 hop must classify as the configured vendor.
  int classified = 0;
  for (const auto& hop : trace.hops) {
    if (!hop.address) continue;
    if (testbed.topology().AsOfAddress(*hop.address) != 2) continue;
    EXPECT_EQ(collector.ClassOf(*hop.address), expected)
        << testbed.NameOf(*hop.address);
    ++classified;
  }
  EXPECT_GE(classified, 4);
}

// Each case is named after its vendor ("JuniperJunosE").
std::string VendorName(const ::testing::TestParamInfo<VendorCase>& info) {
  std::string name = topo::ToString(info.param.vendor);
  std::erase(name, ' ');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Vendors, FingerprintVendorTest,
    ::testing::Values(
        VendorCase{topo::Vendor::kCiscoIos, SignatureClass::kCisco},
        VendorCase{topo::Vendor::kJuniperJunos,
                   SignatureClass::kJuniperJunos},
        VendorCase{topo::Vendor::kJuniperJunosE,
                   SignatureClass::kJuniperJunosE},
        VendorCase{topo::Vendor::kBrocade, SignatureClass::kBrocadeLinux}),
    VendorName);

TEST(SignatureCollector, PartialSignatureIsNotClassified) {
  SignatureCollector collector;
  const netbase::Ipv4Address a(5, 0, 0, 1);
  collector.RecordTimeExceeded(a, 250);
  EXPECT_FALSE(collector.SignatureOf(a).has_value());
  EXPECT_EQ(collector.ClassOf(a), SignatureClass::kUnknown);
  collector.RecordEchoReply(a, 60);
  const auto signature = collector.SignatureOf(a);
  ASSERT_TRUE(signature.has_value());
  EXPECT_EQ(*signature, (Signature{255, 64}));
}

}  // namespace
}  // namespace wormhole::fingerprint
