#include "trace.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {
thread_local int t_current = -1;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double self_time(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> parts;
  parts.reserve(children.size());
  for (const Span& c : children) {
    const double lo = std::max(c.start, span.start);
    const double hi = std::min(c.end, span.end);
    if (hi > lo) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  double run_lo = 0.0, run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : parts) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (span.end - span.start) - covered;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans,
                                                const std::string& parent) {
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].push_back(s);
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!parent.empty()) {
      const int p = spans[i].parent;
      if (p < 0 || static_cast<std::size_t>(p) >= spans.size() ||
          spans[static_cast<std::size_t>(p)].name != parent) {
        continue;
      }
    }
    LayerTotals& t = totals[spans[i].name];
    t.self_s += self_time(spans[i], children[i]);
    t.total_s += spans[i].end - spans[i].start;
    ++t.count;
  }
  return totals;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, int parent) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  saved_current_ = t_current;
  id_ = tracer_.open(name, parent == -2 ? t_current : parent);
  t_current = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.close(id_);
  t_current = saved_current_;
}

void Tracer::Scope::rename(const char* name) {
  if (id_ >= 0) tracer_.rename(id_, name);
}

int Tracer::open(const char* name, int parent) {
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, start, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::rename(int id, const char* name) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].name = name;
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += v;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
