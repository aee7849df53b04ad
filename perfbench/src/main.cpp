// perfbench — the repository benchmark binary.
//
//   perfbench --workload design|apps|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--axserve PATH] [--setup-only 1]
//
// With --setup-only 1 it does the workload's set-up and exits without a
// result; setup_s times such runs.
//
// Prints the workload's figures by name and unit, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 0 only with a
// result line; any error exits 2 without one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/parallel_for.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Per-layer metrics derived from the span tree and counters. Times and
/// counts are per call (per span), so a faster layer lowers its own figure
/// however many calls fit into the run.
void span_metrics(const Tracer& tracer, Metrics& m) {
  const std::vector<Span> spans = tracer.spans();
  const auto totals = layer_totals(spans);
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto per_call = [&](const LayerTotals& t, double s) {
    return ratio(s, static_cast<double>(t.count));
  };
  m.set("error.sweep_exhaustive_mpairs_per_s",
        ratio(tracer.counter("error.sweep_exhaustive_pairs") / 1e6,
              get("error.sweep_exhaustive").total_s),
        "Mpair/s");
  m.set("error.sweep_sampled_mpairs_per_s",
        ratio(tracer.counter("error.sweep_sampled_pairs") / 1e6,
              get("error.sweep_sampled").total_s),
        "Mpair/s");
  const LayerTotals accepted = get("error.analytic"), refused = get("error.analytic_refused");
  m.set("error.analytic_s",
        ratio(accepted.total_s + refused.total_s,
              static_cast<double>(accepted.count + refused.count)),
        "s");
  m.set("error.analytic_refused_s", per_call(refused, refused.total_s), "s");
  m.set("error.analytic_accept_ratio",
        ratio(static_cast<double>(accepted.count),
              static_cast<double>(accepted.count + refused.count)),
        "ratio");
  const LayerTotals evaluate = get("dse.evaluate");
  // Refused analytic attempts inside dse::evaluate (the replayed stages),
  // as a share of the replayed evaluations' time.
  const auto in_evaluate = layer_totals(spans, "dse.evaluate");
  const auto refused_in = in_evaluate.find("error.analytic_refused");
  m.set("error.analytic_refused_share",
        ratio(refused_in == in_evaluate.end() ? 0.0 : refused_in->second.total_s,
              evaluate.total_s),
        "ratio");
  m.set("dse.evaluate_s", per_call(evaluate, evaluate.total_s), "s");
  // Share of the replayed evaluations that its stage spans account for.
  m.set("dse.evaluate_stage_coverage", ratio(evaluate.total_s - evaluate.self_s, evaluate.total_s),
        "ratio");
  for (const auto& [metric, span] : std::vector<std::pair<const char*, const char*>>{
           {"fabric.netlist_build_s", "fabric.netlist_build"},
           {"fabric.optimize_s", "fabric.optimize"},
           {"timing.sta_s", "timing.sta"},
           {"power.estimate_s", "power.estimate"},
           {"dse.surrogate_seed_s", "dse.surrogate_seed"},
           {"nn.conv_s", "nn.conv"},
           {"nn.dense_s", "nn.dense"},
           {"nn.other_layers_s", "nn.other_layers"},
           {"adapt.run_s", "adapt.run"},
           {"jpeg.transform_s", "jpeg.transform"},
           {"jpeg.entropy_encode_s", "jpeg.entropy_encode"},
           {"jpeg.decode_s", "jpeg.decode"}}) {
    const LayerTotals t = get(span);
    m.set(metric, per_call(t, t.self_s), "s");
  }
  // Every image is encoded once and decoded once.
  const LayerTotals decodes = get("jpeg.decode");
  m.set("jpeg.lookups", per_call(decodes, tracer.counter("jpeg.lookups")), "count");
  double protocol_us = 0.0;
  for (const char* span : {"serve.encode_request", "serve.parse_request", "serve.encode_reply",
                           "serve.parse_reply"}) {
    const LayerTotals t = get(span);
    protocol_us += 1e6 * per_call(t, t.total_s);
  }
  m.set("serve.protocol_us", protocol_us, "us");
}

double parse_double(const std::string& flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') throw std::invalid_argument("bad value for " + flag);
  return d;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_double(flag, v));
    } else if (flag == "--seconds") {
      a.seconds = parse_double(flag, v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--setup-only") {
      a.setup_only = std::strcmp(v, "1") == 0;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--axserve") {
      a.axserve = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    axmult::set_thread_count(fan_out());
    Tracer tracer(args.trace);
    Outcome outcome;
    Metrics metrics;
    if (args.setup_only && args.workload == "design") {
      set_up_design(args);
    } else if (args.setup_only && args.workload == "apps") {
      set_up_apps(args);
    } else if (args.setup_only && args.workload == "serve") {
      set_up_serve(args);
    } else if (args.setup_only) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (args.setup_only) return 0;
    if (args.workload == "design") {
      run_design(args, tracer, outcome, metrics);
    } else if (args.workload == "apps") {
      run_apps(args, tracer, outcome, metrics);
    } else if (args.workload == "serve") {
      run_serve(args, tracer, outcome, metrics);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
      if (args.workload != "design") probe_design_layers(args, tracer, outcome, metrics);
      if (args.workload != "apps") probe_apps_layers(args, tracer, outcome, metrics);
      if (args.workload != "serve") probe_serve_layers(args, tracer, outcome, metrics);
      span_metrics(tracer, metrics);
      metrics.set("common.parallel_call_us", parallel_call_us(cores()), "us");
    }
    for (const Metric& m : metrics.all()) {
      std::printf("perfbench: %s %s = %.6g %s\n", args.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", result_json(outcome, metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
