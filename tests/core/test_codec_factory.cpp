#include "core/codec_factory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "baseline/color_quant.hpp"
#include "baseline/comparators.hpp"
#include "baseline/zfp_like.hpp"
#include "core/dct_chop.hpp"
#include "core/partial_serializer.hpp"
#include "core/triangle.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Returns the diagnostic a malformed spec produces, failing if it does
// not throw std::invalid_argument.
std::string diagnostic(const std::string& spec) {
  try {
    (void)make_codec(spec);
  } catch (const std::invalid_argument& err) {
    return err.what();
  } catch (...) {
    ADD_FAILURE() << "spec \"" << spec << "\" threw a non-invalid_argument";
    return "";
  }
  ADD_FAILURE() << "spec \"" << spec << "\" did not throw";
  return "";
}

void expect_contains(const std::string& haystack, const std::string& needle) {
  EXPECT_NE(haystack.find(needle), std::string::npos)
      << "expected \"" << haystack << "\" to contain \"" << needle << "\"";
}

TEST(CodecFactory, BuildsDctChopWithDefaults) {
  const CodecPtr codec = make_codec("dctchop");
  const auto& chop = dynamic_cast<const DctChopCodec&>(*codec);
  EXPECT_EQ(chop.config().cf, 4u);
  EXPECT_EQ(chop.config().block, kDefaultBlock);
  EXPECT_EQ(chop.config().transform, TransformKind::kDct2);
  EXPECT_FALSE(chop.pinned());
  EXPECT_EQ(codec->spec(), "dctchop:cf=4,block=8");
}

TEST(CodecFactory, ParsesTypedParameters) {
  const CodecPtr codec =
      make_codec("dctchop:cf=6,block=8,transform=wht,h=32,w=64");
  const auto& chop = dynamic_cast<const DctChopCodec&>(*codec);
  EXPECT_EQ(chop.config().cf, 6u);
  EXPECT_EQ(chop.config().transform, TransformKind::kWalshHadamard);
  EXPECT_EQ(chop.config().height, 32u);
  EXPECT_EQ(chop.config().width, 64u);
  EXPECT_TRUE(chop.pinned());
}

TEST(CodecFactory, ToleratesWhitespaceAndEmptyItems) {
  const CodecPtr codec = make_codec("  dctchop : cf = 6 , , block = 8 ");
  const auto& chop = dynamic_cast<const DctChopCodec&>(*codec);
  EXPECT_EQ(chop.config().cf, 6u);
  EXPECT_EQ(chop.config().block, 8u);
}

TEST(CodecFactory, AliasesResolveToConcreteKinds) {
  EXPECT_NE(dynamic_cast<const DctChopCodec*>(make_codec("chop:cf=4").get()),
            nullptr);
  EXPECT_NE(dynamic_cast<const DctChopCodec*>(make_codec("dct+chop:cf=4").get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<const PartialSerialCodec*>(make_codec("ps:cf=4,s=2").get()),
      nullptr);
  EXPECT_NE(dynamic_cast<const PartialSerialCodec*>(
                make_codec("dct+chop+ps:cf=4,s=2").get()),
            nullptr);
  EXPECT_NE(dynamic_cast<const TriangleCodec*>(make_codec("sg:cf=4").get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<const TriangleCodec*>(make_codec("dct+chop+sg:cf=4").get()),
      nullptr);
}

TEST(CodecFactory, SpecRoundTripsForCoreKinds) {
  for (const std::string spec :
       {"dctchop:cf=4,block=8", "dctchop:cf=2,block=8,transform=wht",
        "dctchop:cf=4,block=8,h=32,w=32",
        "partial:cf=4,block=8,s=2", "partial:cf=4,block=8,s=2,h=64,w=64",
        "triangle:cf=4,block=8", "triangle:cf=6,block=8,transform=dst2"}) {
    const CodecPtr codec = make_codec(spec);
    EXPECT_EQ(codec->spec(), spec);
    // The canonical spec is itself parseable and canonical (fixpoint).
    EXPECT_EQ(make_codec(codec->spec())->spec(), spec);
  }
}

TEST(CodecFactory, RoundTrippedCodecBehavesIdentically) {
  runtime::Rng rng(11);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, 16, 16), rng);
  const CodecPtr a = make_codec("triangle:cf=4");
  const CodecPtr b = make_codec(a->spec());
  const Tensor pa = a->compress(in);
  const Tensor pb = b->compress(in);
  ASSERT_EQ(pa.shape(), pb.shape());
  for (std::size_t i = 0; i < pa.numel(); ++i) {
    ASSERT_EQ(pa.at(i), pb.at(i)) << "i=" << i;
  }
}

TEST(CodecFactory, BaselineComparatorsRegisterAndRoundTrip) {
  baseline::register_comparator_codecs();
  ASSERT_TRUE(CodecFactory::global().known("zfp"));
  ASSERT_TRUE(CodecFactory::global().known("sz"));
  ASSERT_TRUE(CodecFactory::global().known("jpeg"));
  ASSERT_TRUE(CodecFactory::global().known("colorquant"));
  ASSERT_TRUE(CodecFactory::global().known("cq"));

  for (const std::string spec : {"zfp:rate=8", "sz:eb=0.01", "jpeg:q=70",
                                 "jpeg:q=30,chroma=1", "colorquant:bits=4"}) {
    const CodecPtr codec = make_codec(spec);
    EXPECT_EQ(make_codec(codec->spec())->spec(), codec->spec()) << spec;
  }

  // The CodecPtrs are held in locals: a reference into a temporary
  // CodecPtr dangles once the full expression ends.
  const CodecPtr zfp_codec = make_codec("zfp:rate=8");
  const auto& zfp = dynamic_cast<const baseline::ZfpLikeCodec&>(*zfp_codec);
  EXPECT_DOUBLE_EQ(zfp.compression_ratio(), 4.0);
  const CodecPtr sz_codec = make_codec("sz:eb=1e-3");
  const auto& sz = dynamic_cast<const baseline::SzComparatorCodec&>(*sz_codec);
  EXPECT_DOUBLE_EQ(sz.error_bound(), 1e-3);
  const CodecPtr jpeg_codec = make_codec("jpeg:q=30,chroma=1");
  const auto& jpeg =
      dynamic_cast<const baseline::JpegComparatorCodec&>(*jpeg_codec);
  EXPECT_EQ(jpeg.quality(), 30);
  EXPECT_TRUE(jpeg.chroma());
  EXPECT_NE(dynamic_cast<const baseline::ColorQuantCodec*>(
                make_codec("cq:bits=4").get()),
            nullptr);

  // Registration is idempotent: calling again must not throw or duplicate.
  baseline::register_comparator_codecs();
  std::size_t colorquant_listings = 0;
  for (const auto& [name, summary] : CodecFactory::global().list()) {
    colorquant_listings += (name == "colorquant");
  }
  EXPECT_EQ(colorquant_listings, 1u);
}

TEST(CodecFactory, ListExcludesAliasesAndIsSorted) {
  const auto entries = CodecFactory::global().list();
  ASSERT_GE(entries.size(), 3u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }
  for (const auto& [name, summary] : entries) {
    EXPECT_NE(name, "chop");
    EXPECT_NE(name, "sg");
    EXPECT_NE(name, "ps");
    EXPECT_FALSE(summary.empty()) << name;
  }
}

TEST(CodecFactory, RejectsMissingCodecName) {
  expect_contains(diagnostic(":cf=4"), "missing codec name");
  expect_contains(diagnostic("   "), "missing codec name");
}

TEST(CodecFactory, RejectsUnknownCodecNamingKnownKinds) {
  const std::string msg = diagnostic("dtcchop:cf=4");
  expect_contains(msg, "codec spec \"dtcchop:cf=4\"");
  expect_contains(msg, "unknown codec \"dtcchop\"");
  expect_contains(msg, "dctchop");
  expect_contains(msg, "partial");
  expect_contains(msg, "triangle");
  // Aliases are not advertised in the known-kind list.
  EXPECT_EQ(msg.find("dct+chop+sg"), std::string::npos) << msg;
}

TEST(CodecFactory, RejectsMalformedKeyValueItems) {
  expect_contains(diagnostic("dctchop:cf"), "expected key=value, got \"cf\"");
  expect_contains(diagnostic("dctchop:=4"), "empty key in \"=4\"");
  expect_contains(diagnostic("dctchop:cf="), "empty value for \"cf\"");
  expect_contains(diagnostic("dctchop:cf=4,cf=2"), "duplicate key \"cf\"");
}

TEST(CodecFactory, RejectsUnknownParameterNamingValidKeys) {
  const std::string msg = diagnostic("dctchop:cf=4,rate=8");
  expect_contains(msg, "unknown parameter \"rate\" for dctchop");
  expect_contains(msg, "valid:");
  expect_contains(msg, "cf");
  expect_contains(msg, "block");
  expect_contains(msg, "transform");
}

TEST(CodecFactory, RejectsBadParameterValues) {
  expect_contains(diagnostic("dctchop:cf=abc"),
                  "parameter \"cf\" expects a non-negative integer, got "
                  "\"abc\"");
  expect_contains(diagnostic("dctchop:cf=-2"),
                  "parameter \"cf\" expects a non-negative integer");
  // std::stoull out-of-range must surface the same diagnostic, not an
  // unhandled std::out_of_range.
  expect_contains(diagnostic("dctchop:cf=99999999999999999999"),
                  "parameter \"cf\" expects a non-negative integer");
  expect_contains(diagnostic("dctchop:cf=4x"),
                  "parameter \"cf\" expects a non-negative integer");
  expect_contains(diagnostic("dctchop:transform=fft"),
                  "parameter \"transform\" expects one of dct, wht, dst2; "
                  "got \"fft\"");
  baseline::register_comparator_codecs();
  expect_contains(diagnostic("sz:eb=fast"),
                  "parameter \"eb\" expects a number, got \"fast\"");
}

TEST(CodecFactory, BuilderGeometryErrorsStillPropagate) {
  // cf > block is a codec-constructor error, not a parse error; the
  // factory must let it through unchanged.
  EXPECT_THROW((void)make_codec("dctchop:cf=9,block=8"),
               std::invalid_argument);
  EXPECT_THROW((void)make_codec("dctchop:cf=4,block=8,h=30,w=30"),
               std::invalid_argument);
}

TEST(CodecFactory, ShapeAgnosticFactoryCodecCompressesTwoResolutions) {
  runtime::Rng rng(3);
  const CodecPtr codec = make_codec("dctchop:cf=4,block=8");
  for (const std::size_t res : {16u, 32u}) {
    const Tensor in = Tensor::uniform(Shape::bchw(1, 1, res, res), rng);
    const Tensor out = codec->round_trip(in);
    EXPECT_EQ(out.shape(), in.shape());
  }
}

}  // namespace
}  // namespace aic::core
