#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "core/release.h"
#include "core/synthesizer.h"
#include "data/synthetic.h"
#include "linalg/ops.h"
#include "serve_test_util.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace p3gm {
namespace {

// ---------------------------------------------------------- serialization

TEST(SerializeTest, RoundTripScalarsAndStrings) {
  const std::string path = ::testing::TempDir() + "/p3gm_ser1.bin";
  {
    util::BinaryWriter w(path, 0xABCD1234, 7);
    ASSERT_TRUE(w.status().ok());
    w.WriteU64(42);
    w.WriteDouble(3.25);
    w.WriteString("hello");
    w.WriteDoubles({1.0, -2.0});
    ASSERT_TRUE(w.Close().ok());
  }
  util::BinaryReader r(path, 0xABCD1234, 7);
  ASSERT_TRUE(r.status().ok());
  EXPECT_EQ(*r.ReadU64(), 42u);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadDoubles(), (std::vector<double>{1.0, -2.0}));
}

TEST(SerializeTest, RejectsBadMagicAndVersion) {
  const std::string path = ::testing::TempDir() + "/p3gm_ser2.bin";
  {
    util::BinaryWriter w(path, 0x11111111, 1);
    w.WriteU64(1);
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_FALSE(util::BinaryReader(path, 0x22222222, 1).status().ok());
  EXPECT_FALSE(util::BinaryReader(path, 0x11111111, 2).status().ok());
}

TEST(SerializeTest, TruncatedReadFails) {
  const std::string path = ::testing::TempDir() + "/p3gm_ser3.bin";
  {
    util::BinaryWriter w(path, 0x1, 1);
    w.WriteU64(1000);  // Claims 1000 doubles follow; none do.
    ASSERT_TRUE(w.Close().ok());
  }
  util::BinaryReader r(path, 0x1, 1);
  ASSERT_TRUE(r.status().ok());
  EXPECT_FALSE(r.ReadDoubles().ok());
}

TEST(SerializeTest, MatrixRoundTrip) {
  const std::string path = ::testing::TempDir() + "/p3gm_ser4.bin";
  linalg::Matrix m = {{1, 2, 3}, {4, 5, 6}};
  {
    util::BinaryWriter w(path, 0x2, 1);
    w.WriteMatrix(m.rows(), m.cols(), m.data());
    ASSERT_TRUE(w.Close().ok());
  }
  util::BinaryReader r(path, 0x2, 1);
  std::size_t rows = 0, cols = 0;
  std::vector<double> flat;
  ASSERT_TRUE(r.ReadMatrix(&rows, &cols, &flat).ok());
  auto back = linalg::Matrix::FromFlat(rows, cols, std::move(flat));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

// A 16-byte shape header of 2^32 x 2^32 with no payload: rows * cols
// wraps to 0 in 64 bits, so a multiplied bound would let it through and
// hand back a matrix whose shape does not match its (empty) buffer.
TEST(SerializeTest, MatrixShapeHeaderThatWrapsIsRejected) {
  const std::string path = ::testing::TempDir() + "/p3gm_ser5.bin";
  const std::uint64_t kHuge = 1ull << 32;
  {
    util::BinaryWriter w(path, 0x3, 1);
    w.WriteU64(kHuge);
    w.WriteU64(kHuge);
    ASSERT_TRUE(w.Close().ok());
  }
  util::BinaryReader r(path, 0x3, 1);
  ASSERT_TRUE(r.status().ok());
  std::size_t rows = 0, cols = 0;
  std::vector<double> flat;
  EXPECT_EQ(r.ReadMatrix(&rows, &cols, &flat).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(linalg::Matrix::FromFlat(kHuge, kHuge, {}).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, MissingFileFails) {
  EXPECT_FALSE(
      util::BinaryReader("/nonexistent_p3gm/file.bin", 0x1, 1).status().ok());
}

// -------------------------------------------------------- ReleasePackage

class ReleaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::Dataset train = data::MakeAdultLike(600, 7);
    core::PgmOptions opt;
    opt.hidden = 32;
    opt.latent_dim = 4;
    opt.mog_components = 2;
    opt.epochs = 10;
    opt.batch_size = 60;
    synth_ = new core::PgmSynthesizer(opt);
    ASSERT_TRUE(synth_->Fit(train).ok());
    num_classes_ = train.num_classes;
    feature_dim_ = train.dim();
  }
  static void TearDownTestSuite() {
    delete synth_;
    synth_ = nullptr;
  }

  static core::PgmSynthesizer* synth_;
  static std::size_t num_classes_;
  static std::size_t feature_dim_;
};

core::PgmSynthesizer* ReleaseTest::synth_ = nullptr;
std::size_t ReleaseTest::num_classes_ = 0;
std::size_t ReleaseTest::feature_dim_ = 0;

TEST_F(ReleaseTest, FromPgmCapturesShapes) {
  auto pkg = core::ReleasePackage::FromPgm(&synth_->model(), num_classes_,
                                           "adult-test");
  ASSERT_TRUE(pkg.ok());
  EXPECT_EQ(pkg->latent_dim(), 4u);
  EXPECT_EQ(pkg->output_dim(), feature_dim_ + num_classes_);
  EXPECT_EQ(pkg->feature_dim(), feature_dim_);
  EXPECT_EQ(pkg->prior().num_components(), 2u);
}

TEST_F(ReleaseTest, GenerateMatchesModelDistribution) {
  auto pkg = core::ReleasePackage::FromPgm(&synth_->model(), num_classes_,
                                           "adult-test");
  ASSERT_TRUE(pkg.ok());
  util::Rng rng(3);
  auto gen = pkg->Generate(300, &rng);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->size(), 300u);
  EXPECT_EQ(gen->dim(), feature_dim_);
  // Package samples must agree with direct model samples: with the same
  // RNG state both paths sample the same prior and decoder.
  util::Rng rng2(3);
  auto direct = synth_->Generate(300, &rng2);
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(linalg::MaxAbsDiff(gen->features, direct->features), 1e-9);
  EXPECT_EQ(gen->labels, direct->labels);
}

TEST_F(ReleaseTest, SaveLoadRoundTrip) {
  auto pkg = core::ReleasePackage::FromPgm(&synth_->model(), num_classes_,
                                           "adult-test");
  ASSERT_TRUE(pkg.ok());
  const std::string path = ::testing::TempDir() + "/p3gm_pkg.release";
  ASSERT_TRUE(pkg->Save(path).ok());
  auto loaded = core::ReleasePackage::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name(), "adult-test");
  EXPECT_EQ(loaded->latent_dim(), pkg->latent_dim());
  EXPECT_EQ(loaded->num_classes(), num_classes_);
  util::Rng r1(5), r2(5);
  auto a = pkg->Generate(50, &r1);
  auto b = loaded->Generate(50, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(linalg::MaxAbsDiff(a->features, b->features), 1e-12);
  EXPECT_EQ(a->labels, b->labels);
}

TEST_F(ReleaseTest, LoadRejectsCorruptedFile) {
  auto pkg = core::ReleasePackage::FromPgm(&synth_->model(), num_classes_,
                                           "adult-test");
  ASSERT_TRUE(pkg.ok());
  const std::string path = ::testing::TempDir() + "/p3gm_pkg2.release";
  ASSERT_TRUE(pkg->Save(path).ok());
  // Truncate the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size / 2), 0);
    std::fclose(f);
  }
  EXPECT_FALSE(core::ReleasePackage::Load(path).ok());
}

TEST(ReleaseVaeTest, FromVaeUsesStandardNormalPrior) {
  data::Dataset train = data::MakeAdultLike(300, 9);
  core::VaeOptions opt;
  opt.hidden = 16;
  opt.latent_dim = 3;
  opt.epochs = 3;
  opt.batch_size = 50;
  core::VaeSynthesizer synth(opt);
  ASSERT_TRUE(synth.Fit(train).ok());
  auto pkg = core::ReleasePackage::FromVae(&synth.model(), train.num_classes,
                                           "vae-test");
  ASSERT_TRUE(pkg.ok());
  EXPECT_EQ(pkg->prior().num_components(), 1u);
  EXPECT_EQ(pkg->prior().dim(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(pkg->prior().means()(0, j), 0.0);
    EXPECT_DOUBLE_EQ(pkg->prior().variances()(0, j), 1.0);
  }
  util::Rng rng(7);
  EXPECT_TRUE(pkg->Generate(20, &rng).ok());
}

// A v1 file whose b1 is 1x5 against a hidden width of 3 must fail to
// load with InvalidArgument, never abort while compiling the plan.
TEST(ReleaseEdgeTest, LoadRejectsInconsistentDecoderShapes) {
  const std::string good = ::testing::TempDir() + "/p3gm_handmade.release";
  serve_test::WriteHandmadePackage(good, /*b1_cols=*/3);
  auto loaded = core::ReleasePackage::Load(good);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->output_dim(), 4u);

  const std::string bad = ::testing::TempDir() + "/p3gm_bad_b1.release";
  serve_test::WriteHandmadePackage(bad, /*b1_cols=*/5);
  auto rejected = core::ReleasePackage::Load(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument)
      << rejected.status();
}

TEST(ReleaseEdgeTest, GenerateZeroRowsFails) {
  data::Dataset train = data::MakeAdultLike(200, 11);
  core::PgmOptions opt;
  opt.hidden = 8;
  opt.latent_dim = 2;
  opt.mog_components = 1;
  opt.epochs = 2;
  opt.batch_size = 50;
  core::PgmSynthesizer synth(opt);
  ASSERT_TRUE(synth.Fit(train).ok());
  auto pkg = core::ReleasePackage::FromPgm(&synth.model(), 2, "x");
  ASSERT_TRUE(pkg.ok());
  util::Rng rng(13);
  EXPECT_FALSE(pkg->Generate(0, &rng).ok());
}

// ------------------------------------------------ non-finite values

// The parts of a valid latent 2 -> hidden 3 -> 4 package with a
// two-component prior. b2's last entry is a sentinel whose bytes occur
// once in a saved file. Each test poisons one value.
struct FiniteParts {
  static constexpr double kSentinel = 0.8125;
  linalg::Matrix w1 = linalg::Matrix(2, 3, 0.1);
  linalg::Matrix b1 = linalg::Matrix(1, 3, 0.0);
  linalg::Matrix w2 = linalg::Matrix(3, 4, -0.1);
  linalg::Matrix b2 = {{0.05, 0.05, 0.05, kSentinel}};
  linalg::Matrix means = linalg::Matrix(2, 2, 0.25);
  linalg::Matrix variances = linalg::Matrix(2, 2, 1.5);

  util::Result<core::ReleasePackage> Build() const {
    P3GM_ASSIGN_OR_RETURN(
        stats::GaussianMixture prior,
        stats::GaussianMixture::Create({0.5, 0.5}, means, variances));
    return core::ReleasePackage::FromParts("finite", 0,
                                           core::DecoderType::kBernoulli,
                                           std::move(prior), w1, b1, w2, b2);
  }
};

TEST(ReleaseFiniteTest, FromPartsRejectsNonFiniteValues) {
  ASSERT_TRUE(FiniteParts().Build().ok());
  const char* tensors[] = {"W2", "b1", "prior means", "prior variances"};
  for (int i = 0; i < 4; ++i) {
    FiniteParts parts;
    double* poisoned[] = {&parts.w2(1, 2), &parts.b1(0, 0),
                          &parts.means(1, 0), &parts.variances(0, 1)};
    *poisoned[i] = i == 1 ? std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::quiet_NaN();
    const auto pkg = parts.Build();
    ASSERT_FALSE(pkg.ok()) << tensors[i];
    EXPECT_EQ(pkg.status().code(), util::StatusCode::kInvalidArgument)
        << pkg.status();
    EXPECT_NE(pkg.status().message().find(tensors[i]), std::string::npos)
        << pkg.status();
  }
}

// The saved file of a valid package round-trips; the same bytes with one
// weight patched to NaN fail Load.
TEST(ReleaseFiniteTest, LoadRejectsPatchedNanWeight) {
  const auto pkg = FiniteParts().Build();
  ASSERT_TRUE(pkg.ok()) << pkg.status();
  const std::string path = ::testing::TempDir() + "/p3gm_nan.release";
  ASSERT_TRUE(pkg->Save(path).ok());
  const auto valid = core::ReleasePackage::Load(path);
  ASSERT_TRUE(valid.ok()) << valid.status();
  const linalg::Matrix z(3, 2, 0.5);
  EXPECT_EQ(*valid->DecodeLatent(z), *pkg->DecodeLatent(z));

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const double sentinel = FiniteParts::kSentinel;
  const std::string needle(reinterpret_cast<const char*>(&sentinel),
                           sizeof(double));
  const std::size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bytes.replace(at, sizeof(double), reinterpret_cast<const char*>(&nan),
                sizeof(double));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  const auto loaded = core::ReleasePackage::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("b2"), std::string::npos)
      << loaded.status();
}

}  // namespace
}  // namespace p3gm
