// Metrics, percentiles and output checks shared by the three workloads.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Only set up, then exit without a result (the setup_s probe).
  bool setup_only = false;
  std::string workdir;      ///< scratch directory for caches and sockets
  std::string axserve;      ///< daemon binary (serve workload)
};

// ---- percentiles ------------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]); 0 when empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double q);

/// Highest of {0.999, 0.99, 0.9, 0.5} with at least ten samples beyond it
/// among n samples; 0 when even the median lacks them.
[[nodiscard]] double highest_supported_percentile(std::uint64_t n);

[[nodiscard]] double median(std::vector<double> values);

/// The fastest of repeated timings of one call. Load from outside on a
/// shared host slows most calls of a few milliseconds down by a varying
/// share, but nearly every second some calls run untouched; the fastest
/// call follows the program where the median follows the neighbours. 0
/// when empty.
[[nodiscard]] double fastest(const std::vector<double>& seconds);

// ---- metrics ----------------------------------------------------------------

/// True for a metric name the benchmark contract accepts: starts with a
/// letter or digit, at most 64 of [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(const std::string& name);
/// True for a unit: 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  /// Records (or overwrites) one metric; throws std::invalid_argument on a
  /// name or unit outside the contract's charset.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---- output checks ----------------------------------------------------------

/// Counts attempted and failed operations. A failed output check (a wrong
/// result) marks the operations it covers as failed and the run as
/// incorrect; an operation that produced no result is failed only.
class Outcome {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a check of the results of `ops` operations; returns `ok`.
  bool check(bool ok, const std::string& what, std::uint64_t ops = 1);
  /// Operations that produced no result (an error reply, or no reply at
  /// the reference load); the results that did arrive stay correct.
  void fail(const std::string& what, std::uint64_t ops = 1);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// FNV-1a 64-bit digest (output digests recorded in the benchmark).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = 0xcbf29ce484222325ull);
[[nodiscard]] std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Outcome& outcome, const Metrics& metrics);

/// Peak resident set in MiB of this process, or with `children` of its
/// largest reaped child (the serve daemon). Farm workers are left out of
/// the design figure: their peaks depend on which configs each one drew.
[[nodiscard]] double peak_rss_mb(bool children = false);

/// setup_s: the fastest of `starts` runs of this binary with --setup-only,
/// each in a fresh process that does the workload's set-up and exits, timed
/// from spawn to reap. So it counts process start, static initialisation
/// and one-time tables along with the set-up itself.
[[nodiscard]] double setup_seconds(const Args& args, int starts);

}  // namespace perfbench
