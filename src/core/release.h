#ifndef P3GM_CORE_RELEASE_H_
#define P3GM_CORE_RELEASE_H_

#include <memory>
#include <string>

#include "core/pgm.h"
#include "core/vae.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "obs/quality/fingerprint.h"
#include "stats/gmm.h"
#include "util/result.h"
#include "util/rng.h"

namespace p3gm {

namespace infer {
class DecoderPlan;
}  // namespace infer

namespace core {

/// The shareable artifact of Fig. 1: a trained decoder plus the latent
/// prior, detached from all training state. By DP post-processing, any
/// number of samples drawn from a package built from a privately trained
/// model stays within the training run's (epsilon, delta) budget.
///
/// The package serializes to a small self-contained binary file, so an
/// untrusted analyst can regenerate data with nothing but this library's
/// `Load` + `Generate`.
class ReleasePackage {
 public:
  ReleasePackage() = default;

  /// Extracts the decoder and MoG prior from a fitted PGM/P3GM.
  /// `num_classes` > 0 marks the trailing one-hot label block so
  /// Generate() can emit labeled rows; pass 0 for unlabeled models.
  static util::Result<ReleasePackage> FromPgm(Pgm* model,
                                              std::size_t num_classes,
                                              std::string name);

  /// Extracts the decoder from a fitted VAE / DP-VAE; the prior is the
  /// standard normal (a single-component MoG).
  static util::Result<ReleasePackage> FromVae(Vae* model,
                                              std::size_t num_classes,
                                              std::string name);

  /// Assembles a package from explicit parts (prior + decoder affines).
  /// Shape contract: w1 (dl x h), b1 (1 x h), w2 (h x d), b2 (1 x d),
  /// prior over dl dims. Exists for the serving/bench/test layers, which
  /// need packages without running a training pipeline first.
  static util::Result<ReleasePackage> FromParts(
      std::string name, std::size_t num_classes, DecoderType decoder,
      stats::GaussianMixture prior, linalg::Matrix w1, linalg::Matrix b1,
      linalg::Matrix w2, linalg::Matrix b2);

  /// Writes the package to `path` (binary, versioned).
  util::Status Save(const std::string& path) const;

  /// Reads a package written by Save. Validates header and shapes.
  static util::Result<ReleasePackage> Load(const std::string& path);

  /// Samples `n` rows: z ~ prior, x = sigmoid(W2 relu(W1 z + b1) + b2),
  /// labels decoded from the one-hot block when num_classes > 0.
  /// Equivalent to AssembleRows(DecodeLatent(SampleLatent(n, rng))); the
  /// three stages are public so a serving layer can batch the decoder
  /// forward pass across requests while keeping per-request RNG streams.
  util::Result<data::Dataset> Generate(std::size_t n, util::Rng* rng) const;

  /// Draws `n` latent rows z ~ prior, consuming `rng` sequentially.
  linalg::Matrix SampleLatent(std::size_t n, util::Rng* rng) const;

  /// Runs the decoder forward pass on latent rows `z` (n x latent_dim),
  /// returning post-activation outputs (n x output_dim). Each output row
  /// is a pure function of its input row, so decoding a stacked batch
  /// yields bit-identical rows to decoding each slice separately.
  util::Result<linalg::Matrix> DecodeLatent(const linalg::Matrix& z) const;

  /// DecodeLatent variant that writes into a caller-owned buffer,
  /// reallocating only on shape mismatch. Bit-identical to DecodeLatent;
  /// it exists so a steady-state serving loop can reuse one output
  /// buffer across batches instead of paying a multi-megabyte
  /// allocation plus zero-fill (and, at those sizes, an mmap/page-fault
  /// round trip) on every decode.
  util::Status DecodeLatentInto(const linalg::Matrix& z,
                                linalg::Matrix* out) const;

  /// Splits decoded outputs into a Dataset (labels detached from the
  /// trailing one-hot block when num_classes > 0).
  data::Dataset AssembleRows(linalg::Matrix outputs) const;

  const std::string& name() const { return name_; }
  DecoderType decoder_type() const { return decoder_type_; }
  std::size_t latent_dim() const { return w1_.rows(); }
  std::size_t output_dim() const { return w2_.cols(); }
  /// Feature dimensionality excluding the label block.
  std::size_t feature_dim() const { return output_dim() - num_classes_; }
  std::size_t num_classes() const { return num_classes_; }
  const stats::GaussianMixture& prior() const { return prior_; }

  /// Reference quality fingerprint of this model's output distribution
  /// (obs/quality/fingerprint.h), embedded at release time. Null when
  /// the package was built or loaded without one — format v1 files
  /// predate fingerprints and load with this unset, so the serving
  /// layer must handle fingerprint-less packages. Drawing the
  /// fingerprint from the *released* model is DP post-processing:
  /// embedding it costs no privacy budget.
  const obs::quality::Fingerprint* fingerprint() const {
    return fingerprint_.get();
  }
  /// Shared handle for layers that outlive the package copy (the serve
  /// quality monitors pin it across hot reloads).
  std::shared_ptr<const obs::quality::Fingerprint> fingerprint_ptr() const {
    return fingerprint_;
  }
  void SetFingerprint(obs::quality::Fingerprint fingerprint) {
    fingerprint_ = std::make_shared<const obs::quality::Fingerprint>(
        std::move(fingerprint));
  }
  void ClearFingerprint() { fingerprint_.reset(); }

 private:
  /// Shapes, prior/decoder agreement and finite values in every decoder
  /// tensor and prior parameter. A default-constructed package fails
  /// here.
  util::Status Validate() const;

  /// FailedPrecondition unless Finalize compiled plan_. Every decode
  /// checks this instead of re-running Validate: only a validated
  /// package gets a plan, and its tensors never change afterwards.
  util::Status CheckCompiled() const;

  /// The shared tail of every factory and of Load: Validate(), then
  /// compile the decoder into the DecoderPlan every decode runs
  /// through. Untrusted files reach this through Load, so failures are
  /// returned, never fatal.
  util::Status Finalize();

  std::string name_;
  std::size_t num_classes_ = 0;
  DecoderType decoder_type_ = DecoderType::kBernoulli;
  stats::GaussianMixture prior_;
  // Decoder affine weights: hidden = relu(z W1 + b1); logits = h W2 + b2.
  linalg::Matrix w1_, b1_, w2_, b2_;
  // Compiled by Finalize; immutable and shared by copies of the package.
  std::shared_ptr<const infer::DecoderPlan> plan_;
  std::shared_ptr<const obs::quality::Fingerprint> fingerprint_;
};

/// Computes a reference fingerprint for `pkg` from a fresh synthetic
/// draw of `n` rows decoded through the package's own decoder (a pure
/// post-processing step — zero additional privacy cost). Deterministic
/// given (pkg, n, seed). Does not mutate `pkg`; callers embed the
/// result via SetFingerprint before Save.
util::Result<obs::quality::Fingerprint> BuildFingerprint(
    const ReleasePackage& pkg, std::size_t n, std::uint64_t seed);

}  // namespace core
}  // namespace p3gm

#endif  // P3GM_CORE_RELEASE_H_
