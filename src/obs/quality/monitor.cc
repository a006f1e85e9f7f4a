#include "obs/quality/monitor.h"

#include <algorithm>
#include <cmath>

namespace p3gm {
namespace obs {
namespace quality {

namespace {

/// F_ref(x) estimated from the fingerprint's evenly rank-spaced
/// quantile values: the fraction of grid values <= x. Correct up to
/// grid resolution even when the reference has atoms.
double ReferenceCdf(const FeatureFingerprint& ref, double x) {
  std::size_t below = 0;
  for (double q : ref.quantiles) {
    if (q <= x) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(ref.quantiles.size());
}

}  // namespace

QualityMonitor::QualityMonitor(std::shared_ptr<const Fingerprint> fingerprint,
                               std::size_t feature_dim,
                               std::size_t num_classes, MonitorOptions options)
    : fingerprint_(std::move(fingerprint)),
      feature_dim_(feature_dim),
      num_classes_(num_classes),
      options_(options) {
  if (options_.stride == 0) options_.stride = 1;
}

QualityMonitor::SketchSet QualityMonitor::NewSketchSet() const {
  SketchSet set;
  set.quantiles.reserve(feature_dim_);
  set.moments.resize(feature_dim_);
  for (std::size_t i = 0; i < feature_dim_; ++i) {
    set.quantiles.emplace_back(options_.quantile_k);
  }
  set.labels = CategoricalSketch(num_classes_);
  return set;
}

void QualityMonitor::FoldDecodedRow(SketchSet* set, const double* row,
                                    std::size_t feature_dim,
                                    std::size_t num_classes) {
  for (std::size_t c = 0; c < feature_dim; ++c) {
    set->quantiles[c].Add(row[c]);
    set->moments[c].Add(row[c]);
  }
  if (num_classes > 0) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < num_classes; ++c) {
      if (row[feature_dim + c] > row[feature_dim + best]) best = c;
    }
    set->labels.Add(best);
  }
  ++set->rows;
}

void QualityMonitor::ObserveDecoded(const linalg::Matrix& outputs) {
  if (outputs.cols() != feature_dim_ + num_classes_) return;
  const std::uint64_t start =
      rows_seen_.fetch_add(outputs.rows(), std::memory_order_relaxed);
  // Global-counter stride: fold rows whose absolute index is a multiple
  // of the stride, so the sampling phase rotates across batches instead
  // of always picking the same positions within each batch.
  const std::uint64_t stride = options_.stride;
  std::uint64_t next = ((start + stride - 1) / stride) * stride;
  if (next >= start + outputs.rows()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_) set_ = NewSketchSet();
  for (; next < start + outputs.rows(); next += stride) {
    FoldDecodedRow(&*set_,
                   outputs.row_data(static_cast<std::size_t>(next - start)),
                   feature_dim_, num_classes_);
  }
}

void QualityMonitor::ObserveDataset(const linalg::Matrix& features,
                                    const std::vector<std::size_t>& labels) {
  if (features.cols() != feature_dim_) return;
  rows_seen_.fetch_add(features.rows(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_) set_ = NewSketchSet();
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.row_data(r);
    for (std::size_t c = 0; c < feature_dim_; ++c) {
      set_->quantiles[c].Add(row[c]);
      set_->moments[c].Add(row[c]);
    }
    if (num_classes_ > 0 && r < labels.size()) {
      set_->labels.Add(labels[r]);
    }
    ++set_->rows;
  }
}

QualityMonitor::SketchSet QualityMonitor::MergedSnapshot() const {
  // Snapshot by merging into a fresh set, not by copying: the merge's
  // compaction is part of what Score() measures.
  SketchSet merged = NewSketchSet();
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_) return merged;
  for (std::size_t c = 0; c < feature_dim_; ++c) {
    merged.quantiles[c].Merge(set_->quantiles[c]);
    merged.moments[c].Merge(set_->moments[c]);
  }
  merged.labels.Merge(set_->labels);
  merged.rows += set_->rows;
  return merged;
}

DriftReport QualityMonitor::Score() const {
  DriftReport report;
  report.rows_seen = rows_seen();
  const SketchSet merged = MergedSnapshot();
  report.rows_observed = merged.rows;
  report.has_fingerprint = fingerprint_ != nullptr &&
                           fingerprint_->feature_dim() == feature_dim_;
  report.features.resize(feature_dim_);
  for (std::size_t c = 0; c < feature_dim_; ++c) {
    FeatureDrift& drift = report.features[c];
    drift.live_mean = merged.moments[c].mean();
    drift.live_stddev = merged.moments[c].stddev();
    if (!report.has_fingerprint) continue;
    const FeatureFingerprint& ref = fingerprint_->feature(c);
    drift.ref_mean = ref.mean;
    drift.ref_stddev = ref.stddev;
    if (merged.rows == 0) continue;
    for (double x : ref.quantiles) {
      const double gap =
          std::fabs(merged.quantiles[c].Cdf(x) - ReferenceCdf(ref, x));
      if (gap > drift.ks) drift.ks = gap;
    }
    drift.mean_z = std::fabs(drift.live_mean - ref.mean) /
                   std::max(ref.stddev, 1e-9);
    drift.sigma_ratio = drift.live_stddev / std::max(ref.stddev, 1e-12);
    if (drift.ks > report.worst_ks) {
      report.worst_ks = drift.ks;
      report.worst_feature = c;
    }
    if (drift.mean_z > report.mean_z_max) report.mean_z_max = drift.mean_z;
  }
  if (report.has_fingerprint && merged.rows > 0 && num_classes_ > 0 &&
      fingerprint_->num_classes() == num_classes_) {
    report.label_tv = merged.labels.TotalVariation(fingerprint_->label_probs());
  }
  return report;
}

std::size_t QualityMonitor::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_) return bytes;
  for (const QuantileSketch& q : set_->quantiles) bytes += q.MemoryBytes();
  bytes += set_->moments.size() * sizeof(MomentsSketch);
  bytes += set_->labels.num_bins() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace quality
}  // namespace obs
}  // namespace p3gm
