#ifndef P3GM_OBS_QUALITY_MONITOR_H_
#define P3GM_OBS_QUALITY_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "obs/quality/fingerprint.h"
#include "obs/quality/sketch.h"

namespace p3gm {
namespace obs {
namespace quality {

struct MonitorOptions {
  /// Fold 1 of every `stride` rows into the sketches (1 = every row).
  /// Row selection uses a global row counter, so a batch of b rows
  /// contributes ~b/stride sampled rows regardless of batch boundaries.
  /// The stride is the ingest-cost lever: folding one row costs a KLL
  /// add per feature (~compaction-sort dominated), so the default
  /// samples 1-in-64 to keep sketch ingest well under the 3%-of-decode
  /// bar that bench_quality asserts; drift at fingerprint-grid
  /// resolution needs a few hundred sampled rows, not every row.
  std::size_t stride = 64;
  /// Per-level capacity of the quantile sketches.
  std::size_t quantile_k = 64;
};

/// Drift of one feature's live marginal against its fingerprint.
struct FeatureDrift {
  /// max over the fingerprint quantile grid x_i of
  /// |F_live(x_i) - F_ref(x_i)| — a grid-resolution KS statistic. F_ref
  /// is estimated from the quantile vector itself (fraction of grid
  /// values <= x_i), which stays correct when the reference
  /// distribution has atoms (e.g. clamped values piling up at 0/1).
  double ks = 0.0;
  /// |mean_live - mean_ref| / max(stddev_ref, 1e-9).
  double mean_z = 0.0;
  /// stddev_live / max(stddev_ref, 1e-12).
  double sigma_ratio = 1.0;
  double live_mean = 0.0;
  double live_stddev = 0.0;
  double ref_mean = 0.0;
  double ref_stddev = 0.0;
};

struct DriftReport {
  bool has_fingerprint = false;
  std::uint64_t rows_seen = 0;      // Rows passed to Observe*.
  std::uint64_t rows_observed = 0;  // Rows folded into sketches.
  std::vector<FeatureDrift> features;
  double worst_ks = 0.0;
  std::size_t worst_feature = 0;
  double mean_z_max = 0.0;
  double label_tv = 0.0;

  /// The scalar alarm signal: worst KS across features, or the label
  /// total-variation if that is larger.
  double drift() const { return worst_ks > label_tv ? worst_ks : label_tv; }
};

/// Streaming quality monitor for one served model. Writers fold decoded
/// rows into one sketch set under one mutex: the serve path folds only
/// from the batcher's single worker thread and `p3gm quality --score`
/// from one thread, so the mutex is only ever contested by the rare
/// scrape that snapshots the set. Memory is bounded: one set,
/// O(feature_dim * quantile_k * log n).
class QualityMonitor {
 public:
  /// `fingerprint` may be null: the monitor still accumulates sketches
  /// (rows_observed, live marginals) but Score() reports
  /// has_fingerprint = false and zero drift.
  QualityMonitor(std::shared_ptr<const Fingerprint> fingerprint,
                 std::size_t feature_dim, std::size_t num_classes,
                 MonitorOptions options = {});

  QualityMonitor(const QualityMonitor&) = delete;
  QualityMonitor& operator=(const QualityMonitor&) = delete;

  /// Serve hot path: folds a decoded output matrix (feature columns
  /// followed by a one-hot label block when num_classes > 0, the exact
  /// shape ReleasePackage::DecodeLatentInto produces). Applies stride
  /// subsampling. Ignores matrices whose width does not match.
  void ObserveDecoded(const linalg::Matrix& outputs);

  /// Offline path (`p3gm quality --score`): folds every row of an
  /// already-split dataset, no subsampling.
  void ObserveDataset(const linalg::Matrix& features,
                      const std::vector<std::size_t>& labels);

  /// Merges the sketch set into a fresh one and scores that snapshot
  /// against the fingerprint. Safe to call concurrently with writers.
  DriftReport Score() const;

  std::uint64_t rows_seen() const {
    return rows_seen_.load(std::memory_order_relaxed);
  }

  /// Current footprint of the sketch set, for the bookkeeping gauge.
  std::size_t MemoryBytes() const;

  const Fingerprint* fingerprint() const { return fingerprint_.get(); }
  std::size_t feature_dim() const { return feature_dim_; }
  std::size_t num_classes() const { return num_classes_; }
  const MonitorOptions& options() const { return options_; }

 private:
  struct SketchSet {
    std::vector<QuantileSketch> quantiles;
    std::vector<MomentsSketch> moments;
    CategoricalSketch labels;
    std::uint64_t rows = 0;
  };

  SketchSet NewSketchSet() const;
  SketchSet MergedSnapshot() const;
  /// Folds one decoded row (features + optional one-hot block).
  static void FoldDecodedRow(SketchSet* set, const double* row,
                             std::size_t feature_dim,
                             std::size_t num_classes);

  std::shared_ptr<const Fingerprint> fingerprint_;
  std::size_t feature_dim_;
  std::size_t num_classes_;
  MonitorOptions options_;
  std::atomic<std::uint64_t> rows_seen_{0};
  mutable std::mutex mu_;
  // Guarded by mu_. Allocated by the first fold, on the writer's thread:
  // allocating it in the constructor, on the thread that builds the
  // monitor, measurably raised the serve_bulk benchmark's peak RSS.
  std::optional<SketchSet> set_;
};

}  // namespace quality
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_QUALITY_MONITOR_H_
