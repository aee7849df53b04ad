// Span recorder for the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own code, one around each call
// into a library layer. A span has a name, a start, an end and the span that
// caused it (its parent); spans stay in memory until the run ends. With the
// tracer disabled a Scope costs one branch, which is how the untraced runs
// measure the end-to-end metrics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady (CLOCK_MONOTONIC) clock.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the tracer's span list, -1 for a root
};

/// Self time of `span`: its duration minus the part of [start, end] that
/// the union of `children` covers (children running in parallel on other
/// threads overlap each other; their overlap is counted once).
[[nodiscard]] double self_time(const Span& span, const std::vector<Span>& children);

/// Per-name totals over a finished trace.
struct LayerTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  std::uint64_t count = 0;
};
/// Totals per span name; with `parent` set, only over the spans whose
/// parent span carries that name.
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans,
                                                              const std::string& parent = "");

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span. The parent is the innermost open Scope on the calling
  /// thread, or `parent` when given (spans opened on worker threads).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int parent = -2);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span (-1 when tracing is off).
    [[nodiscard]] int id() const noexcept { return id_; }
    /// Renames the open span, for outcomes known only after the call
    /// (an analytic attempt that the engine refused).
    void rename(const char* name);

   private:
    Tracer& tracer_;
    int id_ = -1;
    int saved_current_ = -1;
  };

  /// Adds `v` to the named counter (no-op when disabled).
  void count(const std::string& name, double v = 1.0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] double counter(const std::string& name) const;

 private:
  int open(const char* name, int parent);
  void close(int id);
  void rename(int id, const char* name);

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and counters_
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
