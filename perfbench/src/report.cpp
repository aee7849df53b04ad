#include "report.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double highest_supported_percentile(std::uint64_t n) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0 : *std::min_element(seconds.begin(), seconds.end());
}

namespace {
bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}
bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}
}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name '" + name + "'");
  if (!valid_unit(unit)) throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite value for " + name);
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Outcome::check(bool ok, const std::string& what, std::uint64_t ops) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failed_ += ops;
    correct_ = false;
  }
  return ok;
}

void Outcome::fail(const std::string& what, std::uint64_t ops) {
  std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  failed_ += ops;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) { return fnv1a(s.data(), s.size(), h); }

std::string result_json(const Outcome& outcome, const Metrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.correct() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted() << ", \"failed\": " << outcome.failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double setup_seconds(const Args& args, int starts) {
  std::vector<std::string> words = {"/proc/self/exe", "--workload", args.workload,
                                    "--seed", std::to_string(args.seed),
                                    "--seconds", std::to_string(args.seconds),
                                    "--workdir", args.workdir, "--setup-only", "1"};
  if (!args.axserve.empty()) {
    words.push_back("--axserve");
    words.push_back(args.axserve);
  }
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  std::vector<double> runs;
  for (int i = 0; i < starts; ++i) {
    const double t0 = now_s();
    pid_t pid = -1;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
      throw std::runtime_error("cannot start the set-up probe");
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("the set-up probe failed");
    }
    runs.push_back(now_s() - t0);
  }
  return fastest(runs);
}

}  // namespace perfbench
