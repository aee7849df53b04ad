// Self-tests of the benchmark's own arithmetic and checks:
// percentile selection, span self time, the metric-name charset and an
// output check that must fail on a corrupted result. Exits 1 on failure.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/catalog.hpp"
#include "dse/space.hpp"
#include "error/metrics.hpp"
#include "report.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile(v, 0.5) == 500.0, "nearest-rank p50 of 1..1000 is 500");
  expect(percentile(v, 0.99) == 990.0, "nearest-rank p99 of 1..1000 is 990");
  expect(percentile({7.0}, 0.99) == 7.0, "percentile of one sample is that sample");
  expect(percentile({}, 0.5) == 0.0, "percentile of no samples is 0");
  expect(samples_beyond(1000, 0.99) == 10, "p99 of 1000 samples has 10 beyond it");
  expect(highest_supported_percentile(1000) == 0.99, "1000 samples support p99");
  expect(highest_supported_percentile(999) == 0.9, "999 samples fall back to p90");
  expect(highest_supported_percentile(10000) == 0.999, "10000 samples support p99.9");
  expect(highest_supported_percentile(20) == 0.5, "20 samples support only the median");
  expect(highest_supported_percentile(19) == 0.0, "19 samples support no percentile");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count averages the middle");
  expect(fastest({9.0, 1.5, 5.0, 3.0}) == 1.5, "fastest of repeated timings is the minimum");
  expect(fastest({}) == 0.0, "fastest of no timings is 0");
}

void test_self_time() {
  const Span parent{"p", 0.0, 10.0, -1};
  expect(self_time(parent, {}) == 10.0, "a span without children is all self time");
  // Children overlap each other ([1,3] and [2,5] -> [1,5]) and one runs
  // past the parent's end ([8,12] counts only [8,10]).
  const std::vector<Span> kids = {{"a", 1.0, 3.0, 0}, {"b", 2.0, 5.0, 0}, {"c", 8.0, 12.0, 0}};
  expect(self_time(parent, kids) == 4.0, "self time = duration - union of child coverage");
  const auto totals = layer_totals({parent, kids[0], kids[1], kids[2]});
  expect(totals.at("p").self_s == 4.0 && totals.at("p").total_s == 10.0 &&
             totals.at("a").count == 1,
         "layer totals group spans by name with self and total time");
  Tracer tr(true);
  {
    Tracer::Scope outer(tr, "outer");
    Tracer::Scope inner(tr, "inner");
    inner.rename("renamed");
  }
  // Only the "x" span whose parent is an "evaluate" span counts under it.
  const std::vector<Span> tree = {{"evaluate", 0.0, 4.0, -1}, {"x", 1.0, 2.0, 0},
                                  {"other", 5.0, 9.0, -1}, {"x", 6.0, 9.0, 2}, {"x", 9.0, 12.0, -1}};
  const auto under = layer_totals(tree, "evaluate");
  expect(under.size() == 1 && under.at("x").count == 1 && under.at("x").total_s == 1.0,
         "totals under a parent name keep only that parent's children");
  expect(layer_totals(tree).at("x").count == 3, "unfiltered totals keep every span");
  const auto spans = tr.spans();
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[1].name == "renamed",
         "nested scopes record their parent; rename applies");
  Tracer off(false);
  { Tracer::Scope s(off, "x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

void test_names() {
  expect(valid_metric_name("serve.p99_ms") && valid_metric_name("9a-b_c.d"),
         "letters, digits, _ . - are accepted");
  expect(!valid_metric_name("_lead") && !valid_metric_name("a b") && !valid_metric_name("") &&
             !valid_metric_name(std::string(65, 'a')) && valid_metric_name(std::string(64, 'a')),
         "leading symbol, space, empty and >64 characters are rejected");
  expect(valid_unit("1/s") && valid_unit("%") && !valid_unit("a unit") &&
             !valid_unit(std::string(17, 'x')),
         "unit charset and length");
  Metrics m;
  bool threw = false;
  try {
    m.set("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "Metrics::set rejects a bad name");
}

void test_output_checks() {
  using namespace axmult;
  const auto designs = analysis::paper_designs(8);
  const auto& ca8 = analysis::find_design(designs, "Ca_8");
  error::ErrorMetrics m = error::sweep_netlist_exhaustive(ca8.netlist(), 8, 8).metrics;
  expect(ca8_ground_truth(m), "Ca_8 sweep matches its ground truth");
  m.occurrences += 1;
  expect(!ca8_ground_truth(m), "a corrupted Ca_8 result fails the check");

  const dse::Objectives good = dse::evaluate(dse::paper_ca(8));
  dse::Objectives bad = good;
  bad.critical_path_ns += 1e-12;
  expect(same_objectives(good, good) && !same_objectives(good, bad),
         "a corrupted objective vector fails the served-vs-direct check");

  // A served infer reply with one corrupted accumulator makes the run incorrect.
  const std::vector<std::int64_t> acc = {1, -2, 3, 40000};
  serve::Reply reply;
  reply.ok = true;
  reply.acc = acc;
  expect(reply_status(reply, &acc, nullptr) == ReplyStatus::kOk, "a served infer reply checks");
  reply.acc[3] ^= 1;
  Outcome served;
  served.attempt(2);
  (void)book_replies({ReplyStatus::kOk, reply_status(reply, &acc, nullptr)}, false,
                     "corrupted served reply (expected in the self-test)", served);
  expect(!served.correct() && served.failed() == 1,
         "a corrupted served infer reply fails the check and the run");
  serve::Reply hit;
  hit.ok = true;
  hit.has_objectives = true;
  hit.objectives = bad;
  expect(reply_status(hit, nullptr, &good) == ReplyStatus::kWrong,
         "a corrupted served characterize reply is wrong");
  // Overload at a ladder rung is counted, not failed; at the reference load it fails.
  Outcome rung;
  rung.attempt(3);
  const std::vector<ReplyStatus> shed = {ReplyStatus::kOk, ReplyStatus::kRetry,
                                         ReplyStatus::kMissing};
  expect(book_replies(shed, true, "rung", rung) == 2 && rung.failed() == 0 && rung.correct(),
         "overload at a ladder rung is counted, not failed");
  Outcome reference;
  reference.attempt(3);
  expect(book_replies(shed, false, "overload at the reference load (expected in the self-test)",
                      reference) == 0 &&
             reference.failed() == 2 && reference.correct(),
         "overload at the reference load fails its operations, results stay correct");

  Outcome out;
  out.attempt(3);
  out.check(true, "passing check");
  out.check(false, "deliberately failing check (expected in the self-test)", 2);
  expect(!out.correct() && out.failed() == 2 && out.attempted() == 3,
         "a failed check marks its operations failed and the run incorrect");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_names();
  test_output_checks();
  std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "OK", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
