#include "audit/golden.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/pgm.h"
#include "core/release.h"
#include "core/vae.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "pca/pca.h"
#include "stats/gmm.h"
#include "util/check.h"
#include "util/rng.h"

namespace p3gm {
namespace audit {

namespace {

constexpr char kHeader[] = "# p3gm golden trace v1";
constexpr char kDecodeHeader[] = "# p3gm golden decode v1";
constexpr char kDpPcaHeader[] = "# p3gm golden dp-pca v1";
constexpr char kElboHeader[] = "# p3gm golden elbo v1";
constexpr double kDelta = 1e-5;

// Shared line-by-line comparison: regenerated `fresh` lines against the
// checked-in file at `path`, reporting the first mismatch with a
// regeneration hint.
GoldenCompareResult CompareLinesAgainstFile(
    const std::vector<std::string>& fresh, const std::string& path) {
  GoldenCompareResult result;
  std::ifstream in(path);
  if (!in) {
    result.message = "cannot open golden file: " + path +
                     " (generate it with build/tools/regen_golden)";
    return result;
  }
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  const std::size_t n = std::min(golden.size(), fresh.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (golden[i] != fresh[i]) {
      std::ostringstream msg;
      msg << "golden mismatch at line " << (i + 1) << ":\n  golden: "
          << golden[i] << "\n  fresh:  " << fresh[i]
          << "\nIf the numeric change is intentional, regenerate with "
             "build/tools/regen_golden (see tools/regen_golden.cc) and "
             "commit the updated "
          << path;
      result.message = msg.str();
      return result;
    }
  }
  if (golden.size() != fresh.size()) {
    std::ostringstream msg;
    msg << "golden length mismatch: golden has " << golden.size()
        << " lines, fresh run has " << fresh.size()
        << ". Regenerate with build/tools/regen_golden " << path;
    result.message = msg.str();
    return result;
  }
  result.ok = true;
  return result;
}

// Writes `lines` to `path`, one per line. Returns false on I/O failure.
bool WriteLinesToFile(const std::vector<std::string>& lines,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& line : lines) out << line << "\n";
  return static_cast<bool>(out);
}

// "tag,i,v0,v1,..." with every double at %.17g (bit round-trip).
std::string FormatValueRow(const char* tag, std::size_t i, const double* v,
                           std::size_t n) {
  std::ostringstream os;
  os << tag << ',' << i;
  char buf[40];
  for (std::size_t j = 0; j < n; ++j) {
    std::snprintf(buf, sizeof(buf), ",%.17g", v[j]);
    os << buf;
  }
  return os.str();
}

// The fixed-seed training input of the Pgm and ELBO traces: 96 x 12
// uniform rows in [0, 1), small enough that every variant fits in well
// under a second.
linalg::Matrix SmallTrainingData() {
  util::Rng data_rng(123);
  linalg::Matrix x(96, 12);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.Uniform();
  return x;
}

// "epoch,<i>,<recon>,<kl>,<epsilon>" for one TrainProgress report.
std::string EpochLine(const core::TrainProgress& p, double epsilon) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "epoch,%zu,%.17g,%.17g,%.17g", p.epoch,
                p.recon_loss, p.kl_loss, epsilon);
  return buf;
}

// "final,<epsilon>,<best_order>" for a ComputeEpsilon result.
std::string FinalLine(const dp::DpGuarantee& g) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "final,%.17g,%.17g", g.epsilon,
                g.best_order);
  return buf;
}

// Synthesis digest: a fixed-seed sample folded to one number. Catches
// regressions in the sampling path (prior draw + decoder) that the
// training trace cannot see.
template <typename Model>
std::string SampleLine(Model* model) {
  util::Rng sample_rng(31337);
  const linalg::Matrix sample = model->Sample(8, &sample_rng);
  double checksum = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    checksum += sample.data()[i] * static_cast<double>(i % 7 + 1);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "sample,%zu,%.17g", sample.size(),
                checksum);
  return buf;
}

// 64-bit FNV-1a over `n` doubles' bytes, continuing from `hash`.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t Fnv1a(const double* values, std::size_t n,
                    std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Fits a Model built from `options` on `x` and appends its
// GoldenElboLines block.
template <typename Model, typename Options>
void AppendElboVariant(const char* variant, const Options& options,
                       const linalg::Matrix& x,
                       std::vector<std::string>* lines) {
  lines->push_back(std::string("variant,") + variant);
  Model model(options);
  const util::Status status =
      model.Fit(x, [&model, lines](const core::TrainProgress& p) {
        lines->push_back(
            EpochLine(p, model.accountant().GetEpsilon(kDelta).epsilon));
      });
  if (!status.ok()) {
    lines->push_back(std::string("error,") + status.message());
    return;
  }
  lines->push_back(FinalLine(model.ComputeEpsilon(kDelta)));
  std::uint64_t weights = kFnvOffset;
  for (const linalg::Matrix& w : model.ExportDecoderWeights()) {
    weights = Fnv1a(w.data(), w.size(), weights);
  }
  lines->push_back("weights," + Hex64(weights));
  const std::vector<double>& trace = model.trace().recon_loss;
  lines->push_back("trace," + std::to_string(trace.size()) + "," +
                   Hex64(Fnv1a(trace.data(), trace.size(), kFnvOffset)));
  lines->push_back(SampleLine(&model));
}

// The canonical decode package: explicit deterministic weights, no
// training. Distinct from the serve-test fixture so the two suites pin
// different numeric surfaces. latent 4 -> hidden 16 -> output 10 with a
// 2-class one-hot block, 3-component MoG prior.
core::ReleasePackage GoldenDecodePackage() {
  const std::size_t dl = 4, h = 16, d = 10;
  linalg::Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  for (std::size_t i = 0; i < dl; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      w1(i, j) = 0.07 * (static_cast<double>((i * h + j) % 11) - 5.0);
    }
  }
  for (std::size_t j = 0; j < h; ++j) b1(0, j) = 0.015 * j - 0.05;
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      w2(i, j) = 0.05 * (static_cast<double>((3 * i + 2 * j) % 9) - 4.0);
    }
  }
  for (std::size_t j = 0; j < d; ++j) b2(0, j) = 0.01 * (j % 4) - 0.02;

  linalg::Matrix means(3, dl), variances(3, dl);
  for (std::size_t j = 0; j < dl; ++j) {
    means(0, j) = -1.5 + 0.1 * j;
    means(1, j) = 0.2;
    means(2, j) = 1.1 - 0.2 * j;
    variances(0, j) = 0.6;
    variances(1, j) = 0.4;
    variances(2, j) = 0.8;
  }
  auto prior =
      stats::GaussianMixture::Create({0.25, 0.35, 0.4}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "golden_decode", /*num_classes=*/2, core::DecoderType::kBernoulli,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

}  // namespace

std::vector<std::string> GoldenPgmTraceLines() {
  core::Pgm pgm({.hidden = 16, .latent_dim = 4, .mog_components = 2,
                 .epochs = 4, .batch_size = 24,
                 .differentially_private = true, .seed = 2024});
  std::vector<std::string> lines;
  lines.emplace_back(kHeader);
  const auto callback = [&pgm, &lines](const core::TrainProgress& p) {
    // The live accountant has already composed every release up to and
    // including this epoch's DP-SGD steps.
    lines.push_back(
        EpochLine(p, pgm.accountant().GetEpsilon(kDelta).epsilon));
  };
  const util::Status status = pgm.Fit(SmallTrainingData(), callback);
  if (!status.ok()) {
    lines.push_back(std::string("error,") + status.message());
    return lines;
  }
  lines.push_back(FinalLine(pgm.ComputeEpsilon(kDelta)));
  lines.push_back(SampleLine(&pgm));
  return lines;
}

bool WriteGoldenTrace(const std::string& path) {
  return WriteLinesToFile(GoldenPgmTraceLines(), path);
}

GoldenCompareResult CompareGoldenTrace(const std::string& path) {
  return CompareLinesAgainstFile(GoldenPgmTraceLines(), path);
}

std::vector<std::string> GoldenDecodeLines() {
  const core::ReleasePackage pkg = GoldenDecodePackage();
  std::vector<std::string> lines;
  lines.emplace_back(kDecodeHeader);

  // A deterministic latent grid spanning both signs and magnitudes past
  // the prior means, decoded directly: pins the decoder forward pass
  // alone, independent of the prior sampler.
  linalg::Matrix z(6, pkg.latent_dim());
  for (std::size_t i = 0; i < z.rows(); ++i) {
    for (std::size_t j = 0; j < z.cols(); ++j) {
      z(i, j) = -2.0 + 0.7 * static_cast<double>(i) +
                0.35 * static_cast<double>(j);
    }
  }
  const util::Result<linalg::Matrix> decoded = pkg.DecodeLatent(z);
  if (!decoded.ok()) {
    lines.push_back(std::string("error,") + decoded.status().message());
    return lines;
  }
  for (std::size_t i = 0; i < decoded->rows(); ++i) {
    lines.push_back(FormatValueRow("decode", i,
                                   decoded->data() + i * decoded->cols(),
                                   decoded->cols()));
  }

  // Fixed-seed end-to-end synthesis: prior draws + decode + one-hot
  // label split, exactly what `p3gm serve` runs per request.
  util::Rng rng(7777);
  const util::Result<data::Dataset> generated = pkg.Generate(12, &rng);
  if (!generated.ok()) {
    lines.push_back(std::string("error,") + generated.status().message());
    return lines;
  }
  const linalg::Matrix& f = generated->features;
  for (std::size_t i = 0; i < f.rows(); ++i) {
    lines.push_back(
        FormatValueRow("sample", i, f.data() + i * f.cols(), f.cols()));
  }
  std::ostringstream labels;
  labels << "labels";
  for (const std::size_t l : generated->labels) labels << ',' << l;
  lines.push_back(labels.str());
  return lines;
}

bool WriteGoldenDecode(const std::string& path) {
  return WriteLinesToFile(GoldenDecodeLines(), path);
}

GoldenCompareResult CompareGoldenDecode(const std::string& path) {
  return CompareLinesAgainstFile(GoldenDecodeLines(), path);
}

std::vector<std::string> GoldenDpPcaLines() {
  // Three planted directions plus uniform noise. n = 300 is not a
  // multiple of the Syrk row block and d = 200 is above the dense
  // eigensolve limit, so every kernel of the high-dimensional path runs,
  // including its ragged edges.
  const std::size_t n = 300, d = 200, factors = 3;
  util::Rng data_rng(4242);
  linalg::Matrix loadings(factors, d);
  for (std::size_t i = 0; i < loadings.size(); ++i) {
    loadings.data()[i] = data_rng.Normal();
  }
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x.row_data(i);
    for (std::size_t j = 0; j < d; ++j) row[j] = 0.1 * data_rng.Uniform();
    for (std::size_t f = 0; f < factors; ++f) {
      const double t = data_rng.Normal(0.0, 1.0 / (1.0 + f));
      const double* l = loadings.row_data(f);
      for (std::size_t j = 0; j < d; ++j) row[j] += t * l[j];
    }
  }

  pca::DpPcaOptions options;
  options.num_components = 4;
  options.epsilon = 2.0;
  util::Rng rng(977);
  std::vector<std::string> lines;
  lines.emplace_back(kDpPcaHeader);
  const util::Result<pca::PcaModel> model = pca::FitDpPca(x, options, &rng);
  if (!model.ok()) {
    lines.push_back(std::string("error,") + model.status().message());
    return lines;
  }
  const linalg::Matrix& v = model->components();
  std::vector<double> column(v.rows());
  for (std::size_t j = 0; j < v.cols(); ++j) {
    for (std::size_t i = 0; i < v.rows(); ++i) column[i] = v(i, j);
    lines.push_back(
        FormatValueRow("component", j, column.data(), column.size()));
  }
  std::string variance = "variance";
  char buf[40];
  for (const double l : model->explained_variance()) {
    std::snprintf(buf, sizeof(buf), ",%.17g", l);
    variance += buf;
  }
  lines.push_back(variance);
  std::snprintf(buf, sizeof(buf), "rng,%llu",
                static_cast<unsigned long long>(rng.NextU64()));
  lines.emplace_back(buf);
  return lines;
}

bool WriteGoldenDpPca(const std::string& path) {
  return WriteLinesToFile(GoldenDpPcaLines(), path);
}

GoldenCompareResult CompareGoldenDpPca(const std::string& path) {
  return CompareLinesAgainstFile(GoldenDpPcaLines(), path);
}

std::vector<std::string> GoldenElboLines() {
  const linalg::Matrix x = SmallTrainingData();
  std::vector<std::string> lines = {kElboHeader};
  core::PgmOptions pgm{.hidden = 16, .latent_dim = 4, .mog_components = 2,
                       .epochs = 3, .batch_size = 24, .seed = 2025};
  AppendElboVariant<core::Pgm>("PGM", pgm, x, &lines);
  pgm.freeze_variance = pgm.differentially_private = true;
  pgm.seed = 2026;
  AppendElboVariant<core::Pgm>("P3GM(AE)", pgm, x, &lines);

  core::VaeOptions vae{.hidden = 16, .latent_dim = 3, .epochs = 3,
                       .batch_size = 24, .seed = 58};
  AppendElboVariant<core::Vae>("VAE", vae, x, &lines);
  vae.differentially_private = true;
  vae.seed = 59;
  AppendElboVariant<core::Vae>("DP-VAE", vae, x, &lines);
  vae.decoder = core::DecoderType::kGaussian;
  vae.seed = 60;
  AppendElboVariant<core::Vae>("DP-VAE(Gaussian)", vae, x, &lines);
  return lines;
}

bool WriteGoldenElbo(const std::string& path) {
  return WriteLinesToFile(GoldenElboLines(), path);
}

GoldenCompareResult CompareGoldenElbo(const std::string& path) {
  return CompareLinesAgainstFile(GoldenElboLines(), path);
}

}  // namespace audit
}  // namespace p3gm
