#include "core/release.h"

#include <cmath>
#include <utility>

#include "audit/fault_injection.h"
#include "data/transforms.h"
#include "infer/plan.h"
#include "util/check.h"
#include "util/serialize.h"

namespace p3gm {
namespace core {

namespace {

constexpr std::uint32_t kMagic = 0x50334752;  // "P3GR".
// v1: prior + decoder weights. v2 appends a quality fingerprint
// (obs/quality/fingerprint.h). Save emits v1 when no fingerprint is
// embedded, so fingerprint-less files stay byte-identical to the old
// format and old readers keep working; Load accepts both.
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionFingerprint = 2;

// A fitted model's decoder export {W1, b1, W2, b2}, packaged with `prior`.
util::Result<ReleasePackage> FromExport(std::string name,
                                        std::size_t num_classes,
                                        DecoderType decoder,
                                        stats::GaussianMixture prior,
                                        std::vector<linalg::Matrix> w) {
  if (w.size() != 4) {
    return util::Status::Internal("decoder export: expected 4 tensors");
  }
  return ReleasePackage::FromParts(std::move(name), num_classes, decoder,
                                   std::move(prior), std::move(w[0]),
                                   std::move(w[1]), std::move(w[2]),
                                   std::move(w[3]));
}

// InvalidArgument naming `tensor` when any of its `n` values is NaN or
// infinite. Such a value would decode to rows that JSON cannot carry.
util::Status CheckFinite(const char* tensor, const double* values,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      return util::Status::InvalidArgument(
          std::string("ReleasePackage: non-finite value in ") + tensor);
    }
  }
  return util::Status::OK();
}

util::Status CheckFinite(const char* tensor, const linalg::Matrix& m) {
  return CheckFinite(tensor, m.data(), m.size());
}

}  // namespace

util::Result<ReleasePackage> ReleasePackage::FromPgm(Pgm* model,
                                                     std::size_t num_classes,
                                                     std::string name) {
  return FromExport(std::move(name), num_classes, model->options().decoder,
                    model->prior(), model->ExportDecoderWeights());
}

util::Result<ReleasePackage> ReleasePackage::FromVae(Vae* model,
                                                     std::size_t num_classes,
                                                     std::string name) {
  const std::size_t dl = model->options().latent_dim;
  P3GM_ASSIGN_OR_RETURN(
      stats::GaussianMixture prior,
      stats::GaussianMixture::Create({1.0}, linalg::Matrix(1, dl),
                                     linalg::Matrix(1, dl, 1.0)));
  return FromExport(std::move(name), num_classes, model->options().decoder,
                    std::move(prior), model->ExportDecoderWeights());
}

util::Result<ReleasePackage> ReleasePackage::FromParts(
    std::string name, std::size_t num_classes, DecoderType decoder,
    stats::GaussianMixture prior, linalg::Matrix w1, linalg::Matrix b1,
    linalg::Matrix w2, linalg::Matrix b2) {
  ReleasePackage pkg;
  pkg.name_ = std::move(name);
  pkg.num_classes_ = num_classes;
  pkg.decoder_type_ = decoder;
  pkg.prior_ = std::move(prior);
  pkg.w1_ = std::move(w1);
  pkg.b1_ = std::move(b1);
  pkg.w2_ = std::move(w2);
  pkg.b2_ = std::move(b2);
  P3GM_RETURN_NOT_OK(pkg.Finalize());
  return pkg;
}

util::Status ReleasePackage::Finalize() {
  P3GM_RETURN_NOT_OK(Validate());
  // hidden = relu(z W1 + b1); output = head(h W2 + b2), where the head
  // is the decoder type's observation model.
  const infer::Activation head = decoder_type_ == DecoderType::kBernoulli
                                     ? infer::Activation::kSigmoid
                                     : infer::Activation::kClamp01;
  P3GM_ASSIGN_OR_RETURN(
      infer::DecoderPlan plan,
      infer::DecoderPlan::Compile(
          {{&w1_, &b1_, infer::Activation::kRelu}, {&w2_, &b2_, head}}));
  plan_ = std::make_shared<const infer::DecoderPlan>(std::move(plan));
  return util::Status::OK();
}

util::Status ReleasePackage::Validate() const {
  if (w1_.empty() || w2_.empty()) {
    return util::Status::FailedPrecondition("ReleasePackage: empty decoder");
  }
  // {W1 (dl x h), b1 (1 x h), W2 (h x d), b2 (1 x d)}.
  if (b1_.rows() != 1 || b2_.rows() != 1 || w1_.cols() != b1_.cols() ||
      w1_.cols() != w2_.rows() || w2_.cols() != b2_.cols()) {
    return util::Status::InvalidArgument(
        "ReleasePackage: inconsistent decoder shapes");
  }
  if (prior_.dim() != w1_.rows()) {
    return util::Status::InvalidArgument(
        "ReleasePackage: prior/decoder latent dimension mismatch");
  }
  if (num_classes_ >= output_dim() && num_classes_ != 0) {
    return util::Status::InvalidArgument(
        "ReleasePackage: label block exceeds output dimension");
  }
  P3GM_RETURN_NOT_OK(CheckFinite("W1", w1_));
  P3GM_RETURN_NOT_OK(CheckFinite("b1", b1_));
  P3GM_RETURN_NOT_OK(CheckFinite("W2", w2_));
  P3GM_RETURN_NOT_OK(CheckFinite("b2", b2_));
  P3GM_RETURN_NOT_OK(CheckFinite("prior weights", prior_.weights().data(),
                                 prior_.weights().size()));
  P3GM_RETURN_NOT_OK(CheckFinite("prior means", prior_.means()));
  return CheckFinite("prior variances", prior_.variances());
}

util::Status ReleasePackage::CheckCompiled() const {
  if (plan_ == nullptr) {
    return util::Status::FailedPrecondition("ReleasePackage: empty decoder");
  }
  return util::Status::OK();
}

util::Status ReleasePackage::Save(const std::string& path) const {
  P3GM_RETURN_NOT_OK(Validate());
  util::BinaryWriter w(path, kMagic,
                       fingerprint_ ? kVersionFingerprint : kVersion);
  P3GM_RETURN_NOT_OK(w.status());
  w.WriteString(name_);
  w.WriteU64(num_classes_);
  w.WriteU64(decoder_type_ == DecoderType::kBernoulli ? 0 : 1);
  // Prior.
  w.WriteU64(prior_.num_components());
  w.WriteU64(prior_.dim());
  w.WriteDoubles(prior_.weights());
  w.WriteMatrix(prior_.means().rows(), prior_.means().cols(),
                prior_.means().data());
  w.WriteMatrix(prior_.variances().rows(), prior_.variances().cols(),
                prior_.variances().data());
  // Decoder.
  for (const linalg::Matrix* m : {&w1_, &b1_, &w2_, &b2_}) {
    w.WriteMatrix(m->rows(), m->cols(), m->data());
  }
  if (fingerprint_) fingerprint_->WriteTo(&w);
  return w.Close();
}

util::Result<ReleasePackage> ReleasePackage::Load(const std::string& path) {
  util::BinaryReader r(path, kMagic, kVersion, kVersionFingerprint);
  P3GM_RETURN_NOT_OK(r.status());
  ReleasePackage pkg;
  P3GM_ASSIGN_OR_RETURN(pkg.name_, r.ReadString());
  P3GM_ASSIGN_OR_RETURN(std::uint64_t classes, r.ReadU64());
  pkg.num_classes_ = static_cast<std::size_t>(classes);
  P3GM_ASSIGN_OR_RETURN(std::uint64_t decoder_code, r.ReadU64());
  if (decoder_code > 1) {
    return util::Status::InvalidArgument(
        "ReleasePackage: unknown decoder type");
  }
  pkg.decoder_type_ = decoder_code == 0 ? DecoderType::kBernoulli
                                        : DecoderType::kGaussian;

  P3GM_ASSIGN_OR_RETURN(std::uint64_t k, r.ReadU64());
  P3GM_ASSIGN_OR_RETURN(std::uint64_t dim, r.ReadU64());
  P3GM_ASSIGN_OR_RETURN(std::vector<double> weights, r.ReadDoubles());
  if (weights.size() != k) {
    return util::Status::InvalidArgument(
        "ReleasePackage: prior weight count mismatch");
  }
  auto read_matrix = [&r](linalg::Matrix* out) -> util::Status {
    std::size_t rows = 0, cols = 0;
    std::vector<double> flat;
    P3GM_RETURN_NOT_OK(r.ReadMatrix(&rows, &cols, &flat));
    P3GM_ASSIGN_OR_RETURN(*out,
                          linalg::Matrix::FromFlat(rows, cols,
                                                   std::move(flat)));
    return util::Status::OK();
  };
  linalg::Matrix means, variances;
  P3GM_RETURN_NOT_OK(read_matrix(&means));
  P3GM_RETURN_NOT_OK(read_matrix(&variances));
  if (means.rows() != k || means.cols() != dim) {
    return util::Status::InvalidArgument(
        "ReleasePackage: prior mean shape mismatch");
  }
  P3GM_ASSIGN_OR_RETURN(
      pkg.prior_,
      stats::GaussianMixture::Create(std::move(weights), std::move(means),
                                     std::move(variances)));
  P3GM_RETURN_NOT_OK(read_matrix(&pkg.w1_));
  P3GM_RETURN_NOT_OK(read_matrix(&pkg.b1_));
  P3GM_RETURN_NOT_OK(read_matrix(&pkg.w2_));
  P3GM_RETURN_NOT_OK(read_matrix(&pkg.b2_));
  if (r.version() >= kVersionFingerprint) {
    P3GM_ASSIGN_OR_RETURN(obs::quality::Fingerprint fp,
                          obs::quality::Fingerprint::ReadFrom(&r));
    if (fp.feature_dim() !=
        static_cast<std::size_t>(pkg.w2_.cols()) - pkg.num_classes_) {
      return util::Status::InvalidArgument(
          "ReleasePackage: fingerprint dimension mismatch");
    }
    pkg.SetFingerprint(std::move(fp));
  }
  P3GM_RETURN_NOT_OK(pkg.Finalize());
  return pkg;
}

linalg::Matrix ReleasePackage::SampleLatent(std::size_t n,
                                            util::Rng* rng) const {
  return prior_.SampleN(n, rng);
}

util::Result<linalg::Matrix> ReleasePackage::DecodeLatent(
    const linalg::Matrix& z) const {
  linalg::Matrix out;
  P3GM_RETURN_NOT_OK(DecodeLatentInto(z, &out));
  return out;
}

util::Status ReleasePackage::DecodeLatentInto(const linalg::Matrix& z,
                                              linalg::Matrix* out) const {
  P3GM_CHECK(out != nullptr);
  P3GM_RETURN_NOT_OK(CheckCompiled());
  if (z.cols() != latent_dim()) {
    return util::Status::InvalidArgument(
        "ReleasePackage: latent dimension mismatch");
  }
  // A validated package always carries its plan: packed weights, arena
  // buffers and fused kernels, bit-identical to the nn::Sequential
  // forward pass by the accumulation-order contract (docs/inference.md).
  // Zero rows yield an empty rows x output_dim matrix.
  P3GM_RETURN_NOT_OK(plan_->Execute(z, out));
  // Audit negative control: a constant post-activation shift of one
  // output column (quality-drift detection must catch exactly this).
  // Compiles to nothing when fault injection is off, and is
  // branch-predicted away when idle.
  const double bias_shift = audit::DecoderBiasShift();
  if (bias_shift != 0.0) {
    const std::size_t col = audit::DecoderBiasFeature();
    if (col < out->cols()) {
      for (std::size_t r = 0; r < out->rows(); ++r) {
        out->row_data(r)[col] += bias_shift;
      }
    }
  }
  return util::Status::OK();
}

data::Dataset ReleasePackage::AssembleRows(linalg::Matrix outputs) const {
  data::Dataset out;
  out.name = name_;
  const std::size_t n = outputs.rows();
  if (num_classes_ > 0) {
    out.num_classes = num_classes_;
    data::LabeledRows rows = data::DetachLabels(outputs, num_classes_);
    out.features = std::move(rows.features);
    out.labels = std::move(rows.labels);
  } else {
    out.num_classes = 1;
    out.features = std::move(outputs);
    out.labels.assign(n, 0);
  }
  return out;
}

util::Result<data::Dataset> ReleasePackage::Generate(std::size_t n,
                                                     util::Rng* rng) const {
  P3GM_RETURN_NOT_OK(CheckCompiled());
  if (n == 0) {
    return util::Status::InvalidArgument("ReleasePackage: n must be > 0");
  }
  P3GM_ASSIGN_OR_RETURN(linalg::Matrix outputs,
                        DecodeLatent(SampleLatent(n, rng)));
  return AssembleRows(std::move(outputs));
}

util::Result<obs::quality::Fingerprint> BuildFingerprint(
    const ReleasePackage& pkg, std::size_t n, std::uint64_t seed) {
  if (n == 0) {
    return util::Status::InvalidArgument("BuildFingerprint: n must be > 0");
  }
  util::Rng rng(seed);
  P3GM_ASSIGN_OR_RETURN(linalg::Matrix outputs,
                        pkg.DecodeLatent(pkg.SampleLatent(n, &rng)));
  return obs::quality::Fingerprint::FromDecoded(outputs, pkg.num_classes(),
                                                seed);
}

}  // namespace core
}  // namespace p3gm
