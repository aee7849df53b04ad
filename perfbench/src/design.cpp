// `design` workload: the hardware designer's batch jobs, run cold.
//
// The run searches the wide16 space twice at one budget, each against a
// fresh cache: NSGA-II through the forked farm and the surrogate strategy
// in-process. Then it characterizes the paper catalog again and again
// (every 8x8 netlist design exhaustively with STA and power, every 16x16
// design by a sampled sweep plus the analytic engine where it applies);
// job_ms is the catalog's sweep, STA and power time from each design's
// fastest run (the analytic engine is timed apart). A traced run
// alternates searches and characterizations for its per-layer figures.
// The search seed and budget are part of the job description (fixed, so
// the fronts have recorded digests); --seed drives the sampled sweeps.

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>

#include "analysis/catalog.hpp"
#include "check/analytic.hpp"
#include "dse/cache.hpp"
#include "dse/farm.hpp"
#include "dse/jsonio.hpp"
#include "dse/search.hpp"
#include "error/analytic.hpp"
#include "error/metrics.hpp"
#include "fabric/optimize.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

constexpr char kSpace[] = "wide16";
constexpr std::uint64_t kSearchSeed = 7;
constexpr std::uint64_t kBudget = 8;
constexpr unsigned kPopulation = 4;
constexpr unsigned kProposals = 8;
constexpr std::uint64_t kSearchSamples = std::uint64_t{1} << 16;
constexpr std::uint64_t kSamples16 = std::uint64_t{1} << 14;
constexpr std::uint64_t kChunk16 = std::uint64_t{1} << 14;
constexpr std::uint64_t kChunk8 = std::uint64_t{1} << 12;
constexpr std::size_t kFarmScalingBatch = 8;

// Recorded outputs of the fixed parts of the job.
constexpr std::uint64_t kCharacterize8Digest = 0x8954ae3c21538eecull;
constexpr std::uint64_t kNsga2FrontDigest = 0x84a249e9b528dd88ull;
constexpr std::uint64_t kSurrogateFrontDigest = 0x83c0017fbd174c45ull;

struct Catalog {
  std::vector<analysis::DesignPoint> designs8;
  std::vector<fabric::Netlist> netlists8;
  std::vector<analysis::DesignPoint> designs16;
  std::vector<std::optional<error::AnalyticSpec>> specs16;
  dse::SpaceSpec space;
};

Catalog build_catalog() {
  Catalog cat;
  cat.designs8 = analysis::paper_designs(8);
  for (auto& d : analysis::evo_family_8x8()) cat.designs8.push_back(std::move(d));
  std::erase_if(cat.designs8, [](const analysis::DesignPoint& d) { return !d.has_netlist(); });
  for (const auto& d : cat.designs8) cat.netlists8.push_back(d.netlist());
  cat.designs16 = analysis::paper_designs(16);
  for (const auto& d : cat.designs16) cat.specs16.push_back(check::catalog_analytic_spec(d.name));
  cat.space = dse::make_space(kSpace);
  return cat;
}

struct Characterized {
  std::uint64_t digest8 = 0xcbf29ce484222325ull;
  std::vector<error::ErrorMetrics> sampled16;
  std::uint64_t designs = 0;
  /// Seconds per design, catalog order: the sweep, STA and power of an
  /// 8x8 design, the sampled sweep of a 16x16 one. The analytic engine is
  /// left out: one call takes up to half a second, long enough for outside
  /// load to spread its time over 20% from run to run (the traced run
  /// reports it as error.analytic_s).
  std::vector<double> design_s;
};

std::uint64_t mix(std::uint64_t h, double v) { return fnv1a(&v, sizeof v, h); }
std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return fnv1a(&v, sizeof v, h); }

/// One characterization of the catalog; `analytic` adds the analytic
/// engine on the 16x16 designs (and its check against the sampled sweep).
Characterized characterize(const Catalog& cat, std::uint64_t seed, Tracer& tr, Outcome& out,
                           bool analytic) {
  Characterized res;
  error::SweepConfig cfg8;
  cfg8.chunk_pairs = kChunk8;
  cfg8.collect_pmf = false;
  cfg8.collect_bit_probability = false;
  for (std::size_t i = 0; i < cat.designs8.size(); ++i) {
    const double t0 = now_s();
    const fabric::Netlist& nl = cat.netlists8[i];
    error::ErrorMetrics m;
    {
      Tracer::Scope s(tr, "error.sweep_exhaustive");
      m = error::sweep_netlist_exhaustive(nl, 8, 8, cfg8).metrics;
    }
    tr.count("error.sweep_exhaustive_pairs", 65536.0);
    timing::TimingReport sta;
    {
      Tracer::Scope s(tr, "timing.sta");
      sta = timing::analyze(nl);
    }
    power::PowerReport pw;
    {
      Tracer::Scope s(tr, "power.estimate");
      pw = power::estimate(nl);
    }
    res.digest8 = mix(mix(mix(mix(res.digest8, m.max_error), m.occurrences), m.avg_relative_error),
                      mix(mix(0, sta.critical_path_ns), pw.energy_au));
    if (cat.designs8[i].name == "Ca_8") {
      out.check(ca8_ground_truth(m), "Ca_8 ground truth (max 2312, avg 54.1875, occurrences 5482)");
    }
    ++res.designs;
    res.design_s.push_back(now_s() - t0);
  }
  error::SweepConfig cfg16;
  cfg16.chunk_pairs = kChunk16;
  cfg16.collect_pmf = false;
  cfg16.collect_bit_probability = false;
  for (std::size_t i = 0; i < cat.designs16.size(); ++i) {
    const double t0 = now_s();
    const auto& d = cat.designs16[i];
    error::ErrorMetrics m;
    {
      Tracer::Scope s(tr, "error.sweep_sampled");
      m = error::sweep_sampled(*d.model, kSamples16, seed, cfg16).metrics;
    }
    tr.count("error.sweep_sampled_pairs", static_cast<double>(kSamples16));
    res.sampled16.push_back(m);
    res.design_s.push_back(now_s() - t0);
    if (analytic && cat.specs16[i]) {
      std::optional<error::AnalyticMetrics> am;
      {
        Tracer::Scope s(tr, "error.analytic");
        am = error::analytic_metrics(*cat.specs16[i]);
        if (!am) s.rename("error.analytic_refused");
      }
      if (am) {
        // The sampled error probability is binomial around the exact one.
        const double p = am->error_probability;
        const double n = static_cast<double>(m.samples);
        out.check(m.max_error <= am->metrics.max_error &&
                      std::abs(m.error_probability() - p) <= 6.0 * std::sqrt(p * (1 - p) / n) + 1 / n,
                  d.name + ": sampled sweep agrees with the analytic metrics");
      }
    }
    ++res.designs;
  }
  return res;
}

std::uint64_t front_digest(const dse::SearchResult& r, const std::vector<dse::Objective>& objs) {
  std::uint64_t h = fnv1a(std::string("front"));
  for (const dse::EvaluatedPoint& p : r.front) {
    h = fnv1a(p.key, h);
    for (const double c : dse::cost_vector(p.objectives, objs)) h = mix(h, c);
  }
  return h;
}

bool same_front(const dse::SearchResult& a, const dse::SearchResult& b,
                const std::vector<dse::Objective>& objs) {
  return a.front.size() == b.front.size() && front_digest(a, objs) == front_digest(b, objs);
}

dse::SearchOptions search_options(dse::Strategy strategy, const std::string& cache_path) {
  dse::SearchOptions o;
  o.strategy = strategy;
  o.budget = kBudget;
  o.population = kPopulation;
  o.generations = 1000;  // the budget ends the search
  o.proposals = kProposals;
  o.seed = kSearchSeed;
  o.eval.samples = kSearchSamples;
  o.threads = fan_out();
  o.cache_path = cache_path;
  return o;
}

/// (config key, cached objectives) of every line of a cache file.
std::vector<std::pair<std::string, dse::Objectives>> cache_entries(const std::string& path) {
  std::vector<std::pair<std::string, dse::Objectives>> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto key = dse::jsonio::find_string(line, "key");
    const auto obj = dse::EvalCache::parse_objectives(line);
    if (!key || !obj) continue;
    const std::size_t bar = key->find('|');
    if (bar == std::string::npos) continue;
    entries.emplace_back(key->substr(bar + 1), *obj);
  }
  return entries;
}

/// dse::evaluate's stages, called one by one through their public entry
/// points so each gets its own span.
dse::Objectives replay_evaluate(const std::string& key, const dse::EvalOptions& opts,
                                Tracer& tr, int parent) {
  Tracer::Scope ev(tr, "dse.evaluate", parent);
  dse::Config c = dse::parse_key(key);
  dse::canonicalize(c);
  dse::Objectives obj;
  std::optional<error::AnalyticMetrics> am;
  {
    Tracer::Scope s(tr, "error.analytic");
    am = error::analytic_metrics(dse::analytic_spec(c));
    if (!am) s.rename("error.analytic_refused");
  }
  if (am) {
    obj.mre = am->metrics.avg_relative_error;
    obj.error_probability = am->error_probability;
    obj.max_error = am->metrics.max_error;
    const long double mp = ldexpl(1.0L, static_cast<int>(c.width)) - 1.0L;
    obj.nmed = static_cast<double>(static_cast<long double>(am->metrics.avg_error) / (mp * mp));
    obj.provenance = "analytic";
  } else {
    mult::MultiplierPtr model;
    {
      Tracer::Scope s(tr, "dse.make_model");
      model = dse::make_model(c);
    }
    error::SweepConfig cfg;
    cfg.threads = 1;
    cfg.collect_pmf = false;
    cfg.collect_bit_probability = false;
    error::ErrorMetrics m;
    {
      Tracer::Scope s(tr, "error.sweep_sampled");
      m = error::sweep_sampled(*model, opts.samples, opts.seed, cfg).metrics;
    }
    tr.count("error.sweep_sampled_pairs", static_cast<double>(opts.samples));
    obj.mre = m.avg_relative_error;
    obj.nmed = m.nmed(c.width, c.width);
    obj.error_probability = m.error_probability();
    obj.max_error = m.max_error;
    obj.provenance = "sampled";
  }
  fabric::Netlist nl;
  {
    Tracer::Scope s(tr, "fabric.netlist_build");
    nl = dse::make_config_netlist(c);
  }
  fabric::Netlist impl;
  {
    Tracer::Scope s(tr, "fabric.optimize");
    impl = fabric::optimize(nl).netlist;
  }
  const fabric::AreaReport area = impl.area();
  obj.luts = area.luts;
  obj.carry4 = area.carry4;
  obj.ffs = area.ffs;
  {
    Tracer::Scope s(tr, "timing.sta");
    obj.critical_path_ns = timing::analyze(impl).critical_path_ns;
  }
  {
    Tracer::Scope s(tr, "power.estimate");
    power::PowerModel pm;
    pm.vectors = opts.power_vectors;
    const power::PowerReport pw = power::estimate(impl, pm);
    obj.energy_au = pw.energy_au;
    obj.edp_au = pw.edp_au;
  }
  return obj;
}

/// The catalog's characterize time from repeated characterizations (per
/// run, per design): per design the fastest run (see fastest()), summed.
double catalog_seconds(const std::vector<std::vector<double>>& runs) {
  double total = 0.0;
  for (std::size_t d = 0; d < runs.front().size(); ++d) {
    std::vector<double> v;
    for (const std::vector<double>& run : runs) v.push_back(run[d]);
    total += fastest(v);
  }
  return total;
}

struct SearchTimes {
  double nsga2_s = 0.0;
  double surrogate_s = 0.0;
  double nsga2_evaluations = 0.0;
  double surrogate_evaluations = 0.0;
};

class DesignJob {
 public:
  DesignJob(const Args& args, Outcome& out, Tracer& tr)
      : args_(args), out_(out), tr_(tr), cat_(build_catalog()) {}

  /// Characterizes the catalog once; returns the seconds of each design.
  std::vector<double> characterize_once() {
    // The analytic engine's calls are not timed (see design_s): untraced
    // runs make them only the first time, for the check.
    const Characterized ch =
        characterize(cat_, args_.seed, tr_, out_, sampled16_.empty() || tr_.enabled());
    out_.attempt(ch.designs);
    out_.check(ch.digest8 == kCharacterize8Digest,
               "8x8 catalog characterization equals the recorded digest", ch.designs);
    if (sampled16_.empty()) {
      std::printf("perfbench: digest characterize8=0x%016" PRIx64 "\n", ch.digest8);
    } else {
      bool same = ch.sampled16.size() == sampled16_.size();
      for (std::size_t i = 0; same && i < ch.sampled16.size(); ++i) {
        same = ch.sampled16[i].avg_relative_error == sampled16_[i].avg_relative_error &&
               ch.sampled16[i].max_error == sampled16_[i].max_error;
      }
      out_.check(same, "16x16 sampled sweeps repeat bit-identically within a run");
    }
    sampled16_ = ch.sampled16;
    return ch.design_s;
  }

  /// The two cold searches; `tag` keeps the cache files of different
  /// searches apart.
  SearchTimes search(unsigned tag) {
    SearchTimes t;
    nsga_cache_ = cache_path("nsga2", tag);
    dse::SearchOptions nsga = search_options(dse::Strategy::kNsga2, nsga_cache_);
    nsga.farm_workers = fan_out();
    const double t0 = now_s();
    {
      Tracer::Scope s(tr_, "dse.search_nsga2_farm");
      nsga_ = dse::run_search(cat_.space, nsga);
    }
    const double t1 = now_s();
    t.nsga2_s = t1 - t0;

    surrogate_cache_ = cache_path("surrogate", tag);
    {
      Tracer::Scope s(tr_, "dse.search_surrogate");
      surrogate_ = dse::run_search(
          cat_.space, search_options(dse::Strategy::kSurrogate, surrogate_cache_));
    }
    t.surrogate_s = now_s() - t1;
    t.nsga2_evaluations = static_cast<double>(nsga_.evaluations);
    t.surrogate_evaluations = static_cast<double>(surrogate_.evaluations);
    out_.attempt(nsga_.evaluations + surrogate_.evaluations);
    check_searches();
    first_search_ = false;
    return t;
  }

  /// The traced run's breakdown of the last pass (see the per-layer table).
  void trace_breakdown(Metrics& metrics) {
    const std::vector<dse::Objective> objs = search_options(dse::Strategy::kNsga2, "").objectives;
    const dse::EvalOptions eval = search_options(dse::Strategy::kNsga2, "").eval;

    // Cold in-process NSGA-II: the counters of the in-process path.
    const std::string inproc_cache = cache_path("nsga2-inprocess", 0);
    dse::SearchResult inproc;
    {
      Tracer::Scope s(tr_, "dse.search_nsga2_inprocess");
      inproc = dse::run_search(cat_.space,
                               search_options(dse::Strategy::kNsga2, inproc_cache));
    }
    out_.check(same_front(inproc, nsga_, objs),
               "cold in-process NSGA-II front equals the farm front");
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    metrics.set("dse.evaluations", static_cast<double>(nsga_.evaluations + surrogate_.evaluations),
                "count");
    metrics.set("dse.cache_hit_ratio_farm", ratio(nsga_.cache_hits, nsga_.evaluations), "ratio");
    metrics.set("dse.cache_hit_ratio_inprocess", ratio(inproc.cache_hits, inproc.evaluations),
                "ratio");
    std::printf("perfbench: NSGA-II cache hits: farm %" PRIu64 "/%" PRIu64
                ", in-process %" PRIu64 "/%" PRIu64 "\n",
                nsga_.cache_hits, nsga_.evaluations, inproc.cache_hits, inproc.evaluations);
    std::remove(inproc_cache.c_str());

    // Replay every distinct evaluated key through the public stages.
    auto entries = cache_entries(nsga_cache_);
    const auto surrogate_entries = cache_entries(surrogate_cache_);
    entries.insert(entries.end(), surrogate_entries.begin(), surrogate_entries.end());
    std::vector<int> matched;
    {
      Tracer::Scope root(tr_, "dse.replay");
      for (const auto& [key, objectives] : entries) {
        matched.push_back(same_objectives(replay_evaluate(key, eval, tr_, root.id()), objectives));
      }
    }
    out_.attempt(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out_.check(matched[i] != 0, "replayed stages reproduce the search objectives of " +
                                      entries[i].first);
    }

    // Analytic surrogate seeds of the surrogate search's evaluated keys.
    std::uint64_t seeded = 0;
    {
      Tracer::Scope root(tr_, "dse.surrogate_seeds");
      const int parent = root.id();
      for (const auto& [key, obj] : surrogate_entries) {
        dse::Config c = dse::parse_key(key);
        dse::canonicalize(c);
        Tracer::Scope s(tr_, "dse.surrogate_seed", parent);
        if (error::surrogate_seed(dse::analytic_spec(c))) ++seeded;
      }
    }
    metrics.set("dse.surrogate_seed_accept_ratio", ratio(seeded, surrogate_entries.size()),
                "ratio");

    // Warm replay of the farm search in-process: all hits.
    {
      dse::SearchResult warm;
      const double t0 = now_s();
      {
        Tracer::Scope s(tr_, "dse.cache_replay");
        warm = dse::run_search(cat_.space, search_options(dse::Strategy::kNsga2, nsga_cache_));
      }
      metrics.set("dse.cache_replay_s", now_s() - t0, "s");
      out_.check(same_front(warm, nsga_, objs), "warm cache replay reproduces the front");
    }

    // Farm scaling: one cold batch through 1 worker and through cores().
    std::vector<dse::Config> batch;
    for (const auto& e : entries) {
      if (batch.size() == kFarmScalingBatch) break;
      batch.push_back(dse::parse_key(e.first));
    }
    double rate[2] = {0.0, 0.0};
    const unsigned workers[2] = {1, cores()};
    for (int w = 0; w < 2; ++w) {
      const std::string path = cache_path("farm", workers[w]);
      dse::FarmOptions fo;
      fo.workers = workers[w];
      fo.cache_path = path;
      fo.eval = eval;
      dse::EvalCache cache(path);
      const double t0 = now_s();
      {
        dse::EvalFarm farm(fo);
        Tracer::Scope s(tr_, "dse.farm_batch");
        const auto results = farm.evaluate_batch(batch, cache);
        out_.check(results.size() == batch.size(), "farm batch answers every config");
      }
      rate[w] = static_cast<double>(batch.size()) / (now_s() - t0);
      std::remove(path.c_str());
    }
    metrics.set("dse.farm_configs_per_s", rate[1], "1/s");
    metrics.set("dse.farm_scaling", rate[0] > 0.0 ? rate[1] / rate[0] : 0.0, "ratio");
  }

  void cleanup() {
    for (const std::string* p : {&nsga_cache_, &surrogate_cache_}) {
      if (!p->empty()) std::remove(p->c_str());
    }
  }

  [[nodiscard]] std::uint64_t designs() const {
    return cat_.designs8.size() + cat_.designs16.size();
  }

 private:
  std::string cache_path(const char* what, unsigned tag) const {
    return args_.workdir + "/design-" + what + "-" + std::to_string(tag) + ".cache";
  }

  void check_searches() {
    const std::vector<dse::Objective> objs = search_options(dse::Strategy::kNsga2, "").objectives;
    const std::uint64_t nd = front_digest(nsga_, objs);
    const std::uint64_t sd = front_digest(surrogate_, objs);
    if (first_search_) {
      std::printf("perfbench: digests nsga2=0x%016" PRIx64 " surrogate=0x%016" PRIx64 "\n", nd,
                  sd);
    }
    out_.check(nd == kNsga2FrontDigest,
               "NSGA-II front equals the recorded digest");
    out_.check(sd == kSurrogateFrontDigest,
               "surrogate front equals the recorded digest");
    out_.check(!nsga_.front.empty() && !surrogate_.front.empty(), "searches return fronts");
    // The same search in-process, served by the farm's warm cache.
    const dse::SearchResult inproc =
        dse::run_search(cat_.space, search_options(dse::Strategy::kNsga2, nsga_cache_));
    out_.check(same_front(inproc, nsga_, objs),
               "NSGA-II front identical through the farm and in-process");
  }

  const Args& args_;
  Outcome& out_;
  Tracer& tr_;
  Catalog cat_;
  bool first_search_ = true;
  std::vector<error::ErrorMetrics> sampled16_;
  std::string nsga_cache_, surrogate_cache_;
  dse::SearchResult nsga_, surrogate_;
};

}  // namespace

bool ca8_ground_truth(const error::ErrorMetrics& m) {
  return m.max_error == 2312 && m.avg_error == 54.1875 && m.occurrences == 5482;
}

bool same_objectives(const dse::Objectives& a, const dse::Objectives& b) {
  return a.mre == b.mre && a.nmed == b.nmed && a.error_probability == b.error_probability &&
         a.max_error == b.max_error && a.luts == b.luts && a.carry4 == b.carry4 &&
         a.ffs == b.ffs && a.critical_path_ns == b.critical_path_ns &&
         a.energy_au == b.energy_au && a.edp_au == b.edp_au;
}

void set_up_design(const Args&) { (void)build_catalog(); }

void run_design(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  Tracer quiet(false);
  DesignJob job(args, out, tracer);

  // Every run searches once, cold, so its fronts are checked. A traced run
  // goes on alternating searches and characterizations; an untraced one
  // characterizes the catalog for the rest of its time.
  std::vector<std::vector<double>> characterizations;  ///< per run, per design
  std::vector<SearchTimes> searches;
  const double start = now_s();
  unsigned tag = 0;
  double step_s = 0.0;
  do {
    const double t0 = now_s();
    if (searches.empty() || args.trace) {
      job.cleanup();
      searches.push_back(job.search(tag++));
    }
    characterizations.push_back(job.characterize_once());
    step_s = now_s() - t0;
  } while (now_s() - start + step_s <= args.seconds);

  const double characterize_s = catalog_seconds(characterizations);
  const auto fastest_search = [&](auto fn) {
    std::vector<double> v;
    for (const SearchTimes& t : searches) v.push_back(fn(t));
    return fastest(v);
  };
  const double nsga2_s = fastest_search([](const SearchTimes& t) { return t.nsga2_s; });
  const double surrogate_s = fastest_search([](const SearchTimes& t) { return t.surrogate_s; });
  std::printf("perfbench: design characterizations %zu, searches %zu: characterize_s %.4f "
              "search_nsga2_s %.4f search_surrogate_s %.4f\n",
              characterizations.size(), searches.size(), characterize_s, nsga2_s, surrogate_s);
  if (!args.trace) {
    metrics.set("setup_s", setup_seconds(args, 40), "s");
    metrics.set("job_ms", 1e3 * characterize_s, "ms");
  } else {
    metrics.set("design.characterize_designs_per_s",
                static_cast<double>(job.designs()) / characterize_s, "1/s");
    metrics.set("design.nsga2_configs_per_s", searches.back().nsga2_evaluations / nsga2_s, "1/s");
    metrics.set("design.surrogate_configs_per_s",
                searches.back().surrogate_evaluations / surrogate_s, "1/s");
    // Tracing overhead: the characterize stage untraced against traced,
    // each per design the fastest of as many runs.
    const Catalog cat = build_catalog();
    std::vector<std::vector<double>> untraced_runs;
    for (std::size_t r = 0; r < characterizations.size(); ++r) {
      untraced_runs.push_back(characterize(cat, args.seed, quiet, out, true).design_s);
    }
    const double untraced = catalog_seconds(untraced_runs);
    metrics.set("trace.overhead_ratio", (characterize_s - untraced) / untraced, "ratio");
    job.trace_breakdown(metrics);
  }
  job.cleanup();
  if (!args.trace) metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void probe_design_layers(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  // dse::evaluate's stages on one config the analytic engine accepts and
  // one it refuses (which then falls back to the sampled sweep).
  const dse::EvalOptions eval = search_options(dse::Strategy::kNsga2, "").eval;
  const std::vector<dse::Config> configs = {dse::paper_ca(16), dse::paper_cc(16)};
  std::size_t seeded = 0;
  {
    Tracer::Scope root(tracer, "dse.replay");
    for (const dse::Config& c : configs) {
      const std::string key = dse::config_key(c);
      out.attempt();
      out.check(same_objectives(replay_evaluate(key, eval, tracer, root.id()),
                                dse::evaluate(c, eval)),
                "probe: replayed stages reproduce dse::evaluate of " + key);
      Tracer::Scope s(tracer, "dse.surrogate_seed", root.id());
      seeded += error::surrogate_seed(dse::analytic_spec(c)).has_value();
    }
  }
  metrics.set("dse.surrogate_seed_accept_ratio",
              static_cast<double>(seeded) / static_cast<double>(configs.size()), "ratio");
  const auto designs = analysis::paper_designs(8);
  const fabric::Netlist ca8 = analysis::find_design(designs, "Ca_8").netlist();
  error::ErrorMetrics m;
  {
    Tracer::Scope s(tracer, "error.sweep_exhaustive");
    m = error::sweep_netlist_exhaustive(ca8, 8, 8).metrics;
  }
  tracer.count("error.sweep_exhaustive_pairs", 65536.0);
  out.attempt();
  out.check(ca8_ground_truth(m), "probe: Ca_8 ground truth");
  // A small search, then its resume through the warm cache.
  const std::string cache = args.workdir + "/probe-design.cache";
  dse::SearchOptions o = search_options(dse::Strategy::kNsga2, cache);
  o.budget = 8;
  o.population = 4;
  const dse::SpaceSpec space = dse::make_space("smoke8");
  const dse::SearchResult cold = dse::run_search(space, o);
  const double t0 = now_s();
  dse::SearchResult warm;
  {
    Tracer::Scope s(tracer, "dse.cache_replay");
    warm = dse::run_search(space, o);
  }
  metrics.set("dse.cache_replay_s", now_s() - t0, "s");
  out.attempt(cold.evaluations);
  out.check(same_front(cold, warm, o.objectives), "probe: warm resume reproduces the front");
  std::remove(cache.c_str());
  // The probe runs no catalog pass, no farm and no wide16 search.
  for (const char* name : {"design.characterize_designs_per_s", "design.nsga2_configs_per_s",
                           "design.surrogate_configs_per_s", "dse.farm_configs_per_s"}) {
    metrics.set(name, 0.0, "1/s");
  }
  for (const char* name :
       {"dse.farm_scaling", "dse.cache_hit_ratio_farm", "dse.cache_hit_ratio_inprocess"}) {
    metrics.set(name, 0.0, "ratio");
  }
  metrics.set("dse.evaluations", 0.0, "count");
}

}  // namespace perfbench
