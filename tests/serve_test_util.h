#ifndef P3GM_TESTS_SERVE_TEST_UTIL_H_
#define P3GM_TESTS_SERVE_TEST_UTIL_H_

// Shared fixtures for the serve test suite: a deterministic
// ReleasePackage built from explicit parts (no training pipeline), saved
// to a unique temp file so ModelRegistry/Server can load it the way
// production does, a hand-written package file for the malformed-input
// cases, plus a tiny scoped-temp-dir helper.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "core/release.h"
#include "linalg/matrix.h"
#include "stats/gmm.h"
#include "util/check.h"
#include "util/serialize.h"

namespace p3gm {
namespace serve_test {

/// A small fixed-topology package: latent 3 -> hidden 8 -> output 6
/// (4 features + 2-class one-hot block), 2-component MoG prior. Weights
/// are a deterministic function of `variant` so two variants produce
/// distinguishable outputs.
inline core::ReleasePackage MakePackage(const std::string& name,
                                        int variant = 0) {
  const std::size_t dl = 3, h = 8, d = 6;
  linalg::Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  const double scale = 0.1 + 0.05 * variant;
  for (std::size_t i = 0; i < dl; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      w1(i, j) = scale * (((i * h + j) % 7) - 3);
    }
  }
  for (std::size_t j = 0; j < h; ++j) b1(0, j) = 0.01 * j;
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      w2(i, j) = scale * (((i * d + j) % 5) - 2);
    }
  }
  for (std::size_t j = 0; j < d; ++j) b2(0, j) = -0.02 * j;

  linalg::Matrix means(2, dl), variances(2, dl, 0.5);
  for (std::size_t j = 0; j < dl; ++j) {
    means(0, j) = -1.0;
    means(1, j) = 1.0 + 0.1 * variant;
  }
  auto prior = stats::GaussianMixture::Create({0.4, 0.6}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      name, /*num_classes=*/2, core::DecoderType::kBernoulli,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

/// Writes a format-v1 release file byte by byte: latent 2 -> hidden 3
/// -> 4 outputs, Bernoulli, one-component prior, with b1 of shape
/// 1 x `b1_cols`. b1_cols == 3 is a well-formed package; any other
/// width is a file whose shapes disagree, which ReleasePackage::Load
/// must reject with an error rather than abort on.
inline void WriteHandmadePackage(const std::string& path,
                                 std::size_t b1_cols) {
  const std::size_t dl = 2, h = 3, d = 4;
  const std::vector<double> w1(dl * h, 0.1), b1(b1_cols, 0.0);
  const std::vector<double> w2(h * d, -0.1), b2(d, 0.0);
  const std::vector<double> means(dl, 0.0), variances(dl, 1.0);
  util::BinaryWriter w(path, /*magic=*/0x50334752, /*version=*/1);
  w.WriteString("handmade");
  w.WriteU64(0);  // num_classes.
  w.WriteU64(0);  // Bernoulli decoder.
  w.WriteU64(1);  // Prior components.
  w.WriteU64(dl);
  w.WriteDoubles({1.0});
  w.WriteMatrix(1, dl, means.data());
  w.WriteMatrix(1, dl, variances.data());
  w.WriteMatrix(dl, h, w1.data());
  w.WriteMatrix(1, b1_cols, b1.data());
  w.WriteMatrix(h, d, w2.data());
  w.WriteMatrix(1, d, b2.data());
  P3GM_CHECK(w.Close().ok());
}

/// Creates a unique temp directory; removes it (and its files) on
/// destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/p3gm_serve_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    P3GM_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    for (const std::string& f : files_) ::unlink(f.c_str());
    ::rmdir(path_.c_str());
  }

  /// Writes `pkg` into the directory as <basename>.release and returns
  /// the full path. The serving name will be <basename>.
  std::string WritePackage(const core::ReleasePackage& pkg,
                           const std::string& basename) {
    const std::string path = path_ + "/" + basename + ".release";
    P3GM_CHECK(pkg.Save(path).ok());
    files_.push_back(path);
    return path;
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

/// Number of open file descriptors of this process (via /proc/self/fd;
/// the count includes the directory stream itself, which is constant
/// across calls, so before/after comparisons are still exact).
inline int CountOpenFds() {
  int n = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
  }
  return n;
}

}  // namespace serve_test
}  // namespace p3gm

#endif  // P3GM_TESTS_SERVE_TEST_UTIL_H_
