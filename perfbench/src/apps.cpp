// `apps` workload: the application engineer's throughput on approximate
// backends. One round classifies the next 128-digit slice of the inputs on
// the exact, ca8 and cc8 backends and JPEG-encodes and decodes a 384x384
// procedural scene at q75 on exact and ca8, timing each call; the job is
// the sum of each call's fastest time over the rounds. After the rounds, a
// prefix of the inputs is served once through the adaptive controller
// (ladder cc8 -> cas8 -> exact at SLO 0.05). --seed drives the digit
// samples and the scene.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "adapt/controller.hpp"
#include "adapt/ladder.hpp"
#include "apps/image.hpp"
#include "common/rng.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/quant.hpp"
#include "nn/dataset.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/mac.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

constexpr std::size_t kNnSamples = 4096;     ///< static-backend inputs
constexpr std::size_t kNnBatch = 128;        ///< inputs classified per timed call
constexpr std::size_t kSlices = kNnSamples / kNnBatch;
constexpr std::size_t kAdaptSamples = 2048;  ///< adaptive prefix of that batch
constexpr std::size_t kCalibration = 256;
constexpr std::size_t kAdaptBatch = 32;
constexpr double kSlo = 0.05;
constexpr unsigned kSceneWidth = 384;
constexpr unsigned kSceneHeight = 384;
constexpr int kQuality = 75;
const char* const kBackends[] = {"exact", "ca8", "cc8"};
const char* const kJpegBackends[] = {"exact", "ca8"};

// Acceptance floors/ceilings of the NN outputs per backend (exact, ca8,
// cc8). Over seeds 1-120 at 8192 samples the digits net measured top-1 >=
// 0.983 / 0.987 / 0.808 and output MRE 0 / <= 0.123 / <= 9.05; the bounds
// leave margin for unseen seeds and the smaller batch (at 4096 samples the
// top-1 standard error is at most 0.007) and still catch corrupted
// products.
constexpr double kMinTop1[] = {0.97, 0.97, 0.75};
constexpr double kMaxOutputMre[] = {0.0, 0.2, 15.0};

// Recorded digest of the fixed reference encode (256x256 scene, seed 11,
// q75, exact and ca8): stream bytes and PSNR bits.
constexpr std::uint64_t kJpegReferenceDigest = 0xef118bc66eee6e8aull;

adapt::ControllerConfig controller_config(std::uint64_t seed) {
  adapt::ControllerConfig cfg;
  cfg.panel_rows = 64;
  cfg.monitor.seed = seed + 2;
  cfg.monitor.probes_per_panel = 4;
  cfg.policy.slo = kSlo;
  cfg.layer_slack.emplace_back("conv1", 8.0);
  return cfg;
}

nn::QTensor batch_slice(const nn::QTensor& all, std::size_t start, std::size_t count) {
  nn::QTensor q = all;
  const std::size_t per = all.data.size() / all.shape[0];
  q.shape[0] = static_cast<unsigned>(count);
  q.data.assign(all.data.begin() + static_cast<std::ptrdiff_t>(start * per),
                all.data.begin() + static_cast<std::ptrdiff_t>((start + count) * per));
  return q;
}

std::vector<int> argmax_rows(const nn::QTensor& out) {
  const std::size_t rows = out.shape[0];
  const std::size_t cols = rows ? out.data.size() / rows : 0;
  std::vector<int> labels(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < cols; ++c) {
      if (out.data[r * cols + c] > out.data[r * cols + best]) best = c;
    }
    labels[r] = static_cast<int>(best);
  }
  return labels;
}

/// jpeg::encode split into its two stages, each under its own span.
std::vector<std::uint8_t> encode_traced(Tracer& tr, const jpeg::CodecPlan& plan,
                                        const apps::Image& image) {
  Tracer::Scope s(tr, "jpeg.encode");
  const jpeg::Quantizer quant(jpeg::Component::kLuma, kQuality);
  jpeg::EncodeStats stats;
  std::vector<jpeg::Block> blocks;
  {
    Tracer::Scope t(tr, "jpeg.transform");
    blocks = jpeg::encode_blocks(image, quant, plan, 0, &stats);
  }
  tr.count("jpeg.lookups", static_cast<double>(stats.lookups()));
  Tracer::Scope t(tr, "jpeg.entropy_encode");
  return jpeg::entropy_encode(blocks, image.width(), image.height(), quant.steps());
}

/// Sequential::run layer by layer (one backend, no swap), one span per
/// Layer::forward.
nn::QTensor forward_by_layer(const nn::Sequential& net, const nn::MacBackend& mac,
                             nn::QTensor x, Tracer& tr) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    const std::string kind = layer.kind();
    Tracer::Scope s(tr, kind == "conv2d"  ? "nn.conv"
                        : kind == "dense" ? "nn.dense"
                                          : "nn.other_layers");
    x = layer.forward(x, mac, false, 0);
  }
  return x;
}

/// Seconds of each timed call of one round.
struct Round {
  double nn_s[3] = {};      ///< classify one batch, per backend
  double encode_s[2] = {};  ///< encode the scene, per JPEG backend
  double decode_s[2] = {};
};

/// Per timed call, the fastest of the rounds (see fastest()).
struct Fastest {
  double nn_s = 0.0;  ///< summed over the backends
  double encode_s = 0.0, decode_s = 0.0;
  [[nodiscard]] double job_s() const { return nn_s + encode_s + decode_s; }
};

Fastest fastest_calls(const std::vector<Round>& rounds) {
  const auto fast = [&](auto fn) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(fn(r));
    return fastest(std::move(v));
  };
  Fastest f;
  for (std::size_t b = 0; b < 3; ++b) f.nn_s += fast([b](const Round& r) { return r.nn_s[b]; });
  for (std::size_t j = 0; j < 2; ++j) {
    f.encode_s += fast([j](const Round& r) { return r.encode_s[j]; });
    f.decode_s += fast([j](const Round& r) { return r.decode_s[j]; });
  }
  return f;
}

class AppsJob {
 public:
  AppsJob(const Args& args, Outcome& out, Tracer& tr)
      : args_(args), out_(out), tr_(tr), net_(nn::make_digits_network()) {
    net_.calibrate(nn::make_digits(kCalibration, args.seed + 1).images, 8);
    data_ = nn::make_digits(kNnSamples, args.seed);
    inputs_ = net_.quantize_input(data_.images);
    for (std::size_t i = 0; i < kSlices; ++i) slices_.push_back(batch_slice(inputs_, i * kNnBatch, kNnBatch));
    for (auto& l : labels_) l.assign(kNnSamples, -1);
    for (const char* name : kBackends) backends_.push_back(nn::shared_mac_backend(name));
    ladder_ = adapt::make_ladder({"cc8", "cas8", "exact"});
    scene_ = apps::make_test_scene(kSceneWidth, kSceneHeight, args.seed);
  }

  /// One round: the next slice of the inputs classified on every backend,
  /// the scene encoded and decoded on every JPEG backend, each call timed.
  /// A slice or stream seen before must repeat.
  Round round() {
    Round r;
    const std::size_t slice = rounds_++ % kSlices;
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      net_.set_backend(backends_[b]);
      std::vector<int> labels;
      const double t0 = now_s();
      {
        Tracer::Scope s(tr_, "nn.classify");
        labels = net_.classify(slices_[slice]);
      }
      r.nn_s[b] = now_s() - t0;
      const auto first = labels_[b].begin() + static_cast<std::ptrdiff_t>(slice * kNnBatch);
      if (rounds_ > kSlices) repeat_mismatches_ += !std::equal(labels.begin(), labels.end(), first);
      std::copy(labels.begin(), labels.end(), first);
    }
    for (std::size_t j = 0; j < 2; ++j) {
      const jpeg::CodecPlan plan = jpeg::CodecPlan::uniform(nn::shared_mac_backend(kJpegBackends[j]));
      const double e0 = now_s();
      std::vector<std::uint8_t> stream = encode(plan, scene_);
      const double e1 = now_s();
      {
        Tracer::Scope s(tr_, "jpeg.decode");
        decoded_[j] = jpeg::decode(stream, plan);
      }
      r.encode_s[j] = e1 - e0;
      r.decode_s[j] = now_s() - e1;
      tr_.count("jpeg.lookups", static_cast<double>(decoded_[j].stats.lookups()));
      if (!streams_[j].empty()) repeat_mismatches_ += stream != streams_[j];
      streams_[j] = std::move(stream);
    }
    out_.attempt(backends_.size() * kNnBatch + 4);
    return r;
  }

  /// Serves the adaptive prefix through a fresh controller; returns seconds.
  double adaptive_run() {
    const double t0 = now_s();
    Tracer::Scope s(tr_, "adapt.run");
    adapt::Controller controller(ladder_, controller_config(args_.seed));
    adaptive_labels_.clear();
    for (std::size_t start = 0; start < kAdaptSamples; start += kAdaptBatch) {
      const auto part = net_.classify_planned(batch_slice(inputs_, start, kAdaptBatch), controller);
      adaptive_labels_.insert(adaptive_labels_.end(), part.begin(), part.end());
    }
    report_ = controller.report(kAdaptSamples);
    out_.attempt(kAdaptSamples);
    return now_s() - t0;
  }

  /// Output checks after the timed rounds (at least kSlices of them).
  void check() {
    out_.check(rounds_ >= kSlices && repeat_mismatches_ == 0,
               "nn labels and jpeg streams repeat across rounds", repeat_mismatches_ + 1);
    net_.set_backend(backends_[0]);
    const nn::QTensor exact_out = net_.run(inputs_);
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      net_.set_backend(backends_[b]);
      const nn::QTensor o = net_.run(inputs_);
      const double mre = nn::output_mre(o, exact_out);
      std::size_t correct = 0;
      for (std::size_t i = 0; i < kNnSamples; ++i) correct += labels_[b][i] == data_.labels[i];
      const double top1 = static_cast<double>(correct) / kNnSamples;
      std::printf("perfbench: nn %s top1 %.4f output_mre %.5f\n", kBackends[b], top1, mre);
      out_.check(top1 >= kMinTop1[b] && mre <= kMaxOutputMre[b],
                 std::string("nn ") + kBackends[b] + " top-1 and output MRE", kNnSamples);
      out_.check(labels_[b] == argmax_rows(o),
                 std::string("nn ") + kBackends[b] + " batched labels equal the whole run's",
                 kNnSamples);
    }
    // The controller is deterministic: replaying it gives the served outputs.
    adapt::Controller controller(ladder_, controller_config(args_.seed));
    std::vector<int> labels;
    double mre_weighted = 0.0, cells = 0.0;
    for (std::size_t start = 0; start < kAdaptSamples; start += kAdaptBatch) {
      const nn::QTensor in = batch_slice(inputs_, start, kAdaptBatch);
      const nn::QTensor o = net_.run_planned(in, controller);
      net_.set_backend(backends_[0]);
      mre_weighted += nn::output_mre(o, net_.run(in)) * static_cast<double>(o.data.size());
      cells += static_cast<double>(o.data.size());
      const auto l = argmax_rows(o);
      labels.insert(labels.end(), l.begin(), l.end());
    }
    const double adaptive_mre = mre_weighted / cells;
    std::printf("perfbench: adaptive output_mre %.5f swaps %zu\n", adaptive_mre,
                report_.swaps.size());
    out_.check(adaptive_mre <= kSlo && labels == adaptive_labels_,
               "adaptive run meets the SLO and repeats", kAdaptSamples);
    for (std::size_t j = 0; j < 2; ++j) {
      const double db = apps::psnr(scene_, decoded_[j].image);
      out_.check(decoded_[j].width == kSceneWidth && decoded_[j].height == kSceneHeight &&
                     db >= (j == 0 ? 30.0 : 20.0),
                 std::string("jpeg ") + kJpegBackends[j] + " round trip", 2);
    }
    // Fixed reference scene: recorded stream and PSNR digest.
    const apps::Image ref = apps::make_test_scene(256, 256, 11);
    std::uint64_t h = fnv1a(std::string("jpeg"));
    for (const char* name : kJpegBackends) {
      const jpeg::CodecPlan plan = jpeg::CodecPlan::uniform(nn::shared_mac_backend(name));
      const auto bytes = jpeg::encode(ref, kQuality, plan);
      const double db = apps::psnr(ref, jpeg::decode(bytes, plan).image);
      h = fnv1a(bytes.data(), bytes.size(), h);
      h = fnv1a(&db, sizeof db, h);
    }
    std::printf("perfbench: jpeg reference digest 0x%016" PRIx64 "\n", h);
    out_.check(h == kJpegReferenceDigest,
               "jpeg reference stream and PSNR equal the recorded digest", 2);
  }

  /// Traced-only breakdown: per-layer forward spans, GEMM rates, ledgers.
  void trace_breakdown(Metrics& metrics) {
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      out_.check(argmax_rows(forward_by_layer(net_, *backends_[b], inputs_, tr_)) == labels_[b],
                 "layer-by-layer forward equals classify", kNnSamples);
    }
    // GEMM at the digits-net shapes, random operands.
    std::vector<nn::GemmShape> shapes;
    nn::Shape shape = inputs_.shape;
    for (std::size_t i = 0; i < net_.size(); ++i) {
      if (net_.layer(i).uses_mac()) shapes.push_back(net_.layer(i).gemm_shape(shape));
      shape = net_.layer(i).out_shape(shape);
    }
    Xoshiro256 rng(args_.seed + 3);
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      double macs = 0.0, secs = 0.0;
      for (const nn::GemmShape& g : shapes) {
        std::vector<std::uint8_t> a(g.rows * g.depth), w(g.depth * g.cols);
        for (auto& v : a) v = static_cast<std::uint8_t>(rng.below(256));
        for (auto& v : w) v = static_cast<std::uint8_t>(rng.below(256));
        std::vector<std::int64_t> acc(g.rows * g.cols);
        for (int rep = 0; rep < 5; ++rep) {
          std::fill(acc.begin(), acc.end(), 0);
          const double t0 = now_s();
          nn::gemm_accumulate(*backends_[b], false, a.data(), w.data(), acc.data(), g.rows, g.depth,
                              g.cols);
          secs += now_s() - t0;
          macs += static_cast<double>(g.macs());
        }
      }
      metrics.set(std::string("nn.gemm_gmacs_per_s.") + kBackends[b], macs / secs / 1e9,
                  "Gmac/s");
    }
    metrics.set("adapt.swap_count", static_cast<double>(report_.swaps.size()), "count");
    metrics.set("adapt.monitor_mac_ratio",
                report_.total_macs ? static_cast<double>(report_.monitor_macs) /
                                         static_cast<double>(report_.total_macs)
                                   : 0.0,
                "ratio");
  }

  [[nodiscard]] double scene_mpixels() const {
    return static_cast<double>(kSceneWidth) * kSceneHeight / 1e6;
  }

 private:
  std::vector<std::uint8_t> encode(const jpeg::CodecPlan& plan, const apps::Image& image) {
    return tr_.enabled() ? encode_traced(tr_, plan, image) : jpeg::encode(image, kQuality, plan);
  }

  const Args& args_;
  Outcome& out_;
  Tracer& tr_;
  nn::Sequential net_;
  nn::Dataset data_;
  nn::QTensor inputs_;
  std::vector<nn::QTensor> slices_;  ///< inputs_ in kNnBatch slices
  std::size_t rounds_ = 0;
  std::uint64_t repeat_mismatches_ = 0;
  std::vector<nn::MacBackendPtr> backends_;
  adapt::Ladder ladder_;
  apps::Image scene_;
  std::vector<int> labels_[3];
  std::vector<int> adaptive_labels_;
  adapt::Report report_;
  std::vector<std::uint8_t> streams_[2];
  jpeg::Decoded decoded_[2];
};

}  // namespace

void set_up_apps(const Args& args) {
  Outcome out;
  Tracer quiet(false);
  const AppsJob job(args, out, quiet);
}

void run_apps(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  Tracer quiet(false);
  AppsJob job(args, out, tracer);

  double untraced_job_s = 0.0;
  if (args.trace) {
    AppsJob probe(args, out, quiet);
    std::vector<Round> probe_rounds;
    for (std::size_t i = 0; i < kSlices; ++i) probe_rounds.push_back(probe.round());
    untraced_job_s = fastest_calls(probe_rounds).job_s();
  }
  std::vector<Round> rounds;
  const double start = now_s();
  double round_s = 0.0;
  do {
    const double t0 = now_s();
    rounds.push_back(job.round());
    round_s = now_s() - t0;
  } while (rounds.size() < kSlices || now_s() - start + round_s <= args.seconds);
  // The adaptive path runs once, outside the rounds (a per-layer figure).
  const double adaptive_rate = static_cast<double>(kAdaptSamples) / job.adaptive_run();
  job.check();

  const Fastest f = fastest_calls(rounds);
  const double nn_rate = 3.0 * kNnBatch / f.nn_s;
  const double px = job.scene_mpixels();
  const double enc_rate = 2.0 * px / f.encode_s;
  const double dec_rate = 2.0 * px / f.decode_s;
  std::printf("perfbench: apps rounds %zu: nn_inferences_per_s %.1f "
              "nn_adaptive_inferences_per_s %.1f jpeg_encode_mpixels_per_s %.2f "
              "jpeg_decode_mpixels_per_s %.2f\n",
              rounds.size(), nn_rate, adaptive_rate, enc_rate, dec_rate);
  if (!args.trace) {
    metrics.set("setup_s", setup_seconds(args, 10), "s");
    metrics.set("job_ms", 1e3 * f.job_s(), "ms");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  metrics.set("apps.nn_inferences_per_s", nn_rate, "1/s");
  metrics.set("apps.nn_adaptive_inferences_per_s", adaptive_rate, "1/s");
  metrics.set("apps.jpeg_encode_mpixels_per_s", enc_rate, "Mpx/s");
  metrics.set("apps.jpeg_decode_mpixels_per_s", dec_rate, "Mpx/s");
  metrics.set("trace.overhead_ratio", (f.job_s() - untraced_job_s) / untraced_job_s, "ratio");
  job.trace_breakdown(metrics);
}

void probe_apps_layers(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  constexpr std::size_t kProbeSamples = 64;
  nn::Sequential net = nn::make_digits_network();
  net.calibrate(nn::make_digits(kCalibration, args.seed + 1).images, 8);
  net.set_backend(nn::shared_mac_backend("exact"));
  const nn::QTensor in = net.quantize_input(nn::make_digits(kProbeSamples, args.seed).images);
  out.attempt(kProbeSamples);
  out.check(argmax_rows(forward_by_layer(net, *nn::shared_mac_backend("exact"), in, tracer)) ==
                net.classify(in),
            "probe: layer-by-layer forward equals classify", kProbeSamples);
  adapt::Controller controller(adapt::make_ladder({"cc8", "cas8", "exact"}),
                               controller_config(args.seed));
  {
    Tracer::Scope s(tracer, "adapt.run");
    for (std::size_t start = 0; start < kProbeSamples; start += kAdaptBatch) {
      (void)net.classify_planned(batch_slice(in, start, kAdaptBatch), controller);
    }
  }
  const adapt::Report report = controller.report(kProbeSamples);
  metrics.set("adapt.swap_count", static_cast<double>(report.swaps.size()), "count");
  metrics.set("adapt.monitor_mac_ratio",
              report.total_macs ? static_cast<double>(report.monitor_macs) /
                                      static_cast<double>(report.total_macs)
                                : 0.0,
              "ratio");
  const apps::Image scene = apps::make_test_scene(256, 256, args.seed);
  const jpeg::CodecPlan plan = jpeg::CodecPlan::uniform(nn::shared_mac_backend("ca8"));
  const std::vector<std::uint8_t> bytes = encode_traced(tracer, plan, scene);
  jpeg::Decoded decoded;
  {
    Tracer::Scope s(tracer, "jpeg.decode");
    decoded = jpeg::decode(bytes, plan);
  }
  tracer.count("jpeg.lookups", static_cast<double>(decoded.stats.lookups()));
  out.attempt(2);
  out.check(decoded.width == 256 && decoded.height == 256 && bytes == jpeg::encode(scene, kQuality, plan),
            "probe: jpeg round trip", 2);
  // The probe runs no timed rounds and no GEMM at the workload's shapes.
  for (const char* name : {"apps.nn_inferences_per_s", "apps.nn_adaptive_inferences_per_s"}) {
    metrics.set(name, 0.0, "1/s");
  }
  for (const char* name : {"apps.jpeg_encode_mpixels_per_s", "apps.jpeg_decode_mpixels_per_s"}) {
    metrics.set(name, 0.0, "Mpx/s");
  }
  for (const char* backend : kBackends) {
    metrics.set(std::string("nn.gemm_gmacs_per_s.") + backend, 0.0, "Gmac/s");
  }
}

}  // namespace perfbench
