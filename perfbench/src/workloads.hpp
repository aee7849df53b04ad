// The three benchmark workloads. Each one sets up (several times; setup_s
// is the process start plus the fastest set-up), measures for
// args.seconds, timing short calls many times, checks every output and
// fills `metrics`: the end-to-end metrics when untraced, the per-layer
// metrics of the layers it drives when traced (spans go to `tracer`, which
// is enabled exactly when args.trace is set).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/evaluate.hpp"
#include "error/metrics.hpp"
#include "serve/protocol.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

void run_design(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);
void run_apps(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);
void run_serve(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);

/// The set-up of each workload alone, what setup_s times (see
/// setup_seconds): the catalog; the network, datasets, backends and scene;
/// the key pools and a warmed daemon.
void set_up_design(const Args& args);
void set_up_apps(const Args& args);
void set_up_serve(const Args& args);

/// Fixed small probes of the layers a workload does not drive, so a traced
/// run measures every per-layer time metric on every workload: the design
/// layers (dse::evaluate stages, sweeps, a cache resume), the apps layers
/// (per-layer forward, adaptive run, JPEG stages) and the serve layers (a
/// spawned daemon under one second of the reference load). Each probe sets
/// every per-layer metric of its workload; the figures it does not measure
/// it sets to 0 by name.
void probe_design_layers(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);
void probe_apps_layers(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);
void probe_serve_layers(const Args& args, Tracer& tracer, Outcome& outcome, Metrics& metrics);

/// What became of one request sent to the serve daemon.
enum class ReplyStatus : std::uint8_t {
  kMissing,  ///< no reply within the grace time
  kOk,       ///< a result equal to the direct call's
  kWrong,    ///< a result that differs from the direct call's
  kError,    ///< an error reply
  kRetry,    ///< refused by backpressure
};

/// Status of a served reply: an infer reply is compared with `acc`, a
/// characterize reply with `objectives` (when given; fresh keys are
/// compared after the run).
[[nodiscard]] ReplyStatus reply_status(const axmult::serve::Reply& reply,
                                       const std::vector<std::int64_t>* acc,
                                       const axmult::dse::Objectives* objectives);

/// Books the replies of one load step into `out`. A wrong result fails the
/// output check, so the run is incorrect. An error reply fails its
/// operation. A retry or a missing reply fails its operation too, except at
/// a ladder rung (`rung`), which probes for exactly that overload: there it
/// is only counted. Returns the overload outcomes that were not failed.
std::uint64_t book_replies(const std::vector<ReplyStatus>& statuses, bool rung,
                           const std::string& what, Outcome& out);

/// Cost of one common::parallel_chunks call at `threads` workers with
/// `threads` trivial chunks, in microseconds (median of repeated calls).
[[nodiscard]] double parallel_call_us(unsigned threads);

/// The Ca_8 ground truth: max 2312, avg 54.1875, occurrences 5482.
[[nodiscard]] bool ca8_ground_truth(const axmult::error::ErrorMetrics& m);

/// Field-exact equality of two objective vectors (every error and
/// implementation field).
[[nodiscard]] bool same_objectives(const axmult::dse::Objectives& a,
                                   const axmult::dse::Objectives& b);

/// Worker threads / farm processes of the timed work: one. On a shared
/// host a stage fanned out over every core waits for its slowest thread, so
/// its time follows the neighbours' load more than the program; one thread
/// (and one farm worker) keeps the figures comparable across runs. main()
/// makes it the library's default thread count too.
[[nodiscard]] unsigned fan_out();

/// The machine's core count: the wide side of the traced scaling probes
/// (dse.farm_scaling, common.parallel_call_us).
[[nodiscard]] unsigned cores();

}  // namespace perfbench
