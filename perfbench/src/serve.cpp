// `serve` workload: service clients of a spawned `axserve serve` daemon
// with its own fresh cache file, driven open-loop at fixed rates.
//
// The mix: infer requests sharing one rhs panel (batching), characterize
// requests from a hot key pool (cache reads) and a share of never-seen
// paper8 keys (misses: dse::evaluate plus a cache append). Every request is
// timed from when it was due, not from when it was sent, so a stalled
// generator or daemon shows up in the latency; the generator's own
// lateness is reported separately. --seed drives the key pools, the panels,
// the arrival times and the mix.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "dse/evaluate.hpp"
#include "dse/space.hpp"
#include "nn/gemm.hpp"
#include "nn/mac.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

// The load. Every serve run prints these parameters. One connection and
// one characterization worker keep the daemon and the generator within the
// cores of a shared host.
constexpr unsigned kConnections = 1;
constexpr unsigned kDaemonWorkers = 1;
constexpr std::size_t kHotKeys = 48;
constexpr std::size_t kPanels = 32;
constexpr std::uint32_t kRows = 32, kDepth = 256, kCols = 32;
constexpr char kInferBackend[] = "ca8";
constexpr double kInferShare = 0.7;
constexpr double kMissShare = 0.02;  ///< the rest are hot characterize requests
constexpr double kReferenceRps = 500.0;  ///< rate serve p50/p99 are reported at
constexpr double kWarmupS = 1.0;
// The ladder of offered rates: kLadderBaseRps * 2^(i / kRungsPerOctave) for
// i in [0, kLadderTop]. A rung passes when its p99 (with at least ten
// samples beyond it) and the generator's lag p99 are within kP99LimitMs and
// the median latency of its last fifth is too (the backlog did not grow).
// The search climbs an octave at a time from kLadderStart until a rung
// fails, then bisects between the highest passing and the lowest failing
// rung, so max_rps resolves to one rung (4.4%).
constexpr double kP99LimitMs = 50.0;
constexpr double kLadderBaseRps = 250.0;
constexpr int kRungsPerOctave = 16;
constexpr int kLadderStart = 2 * kRungsPerOctave;  // 1000/s
constexpr int kLadderTop = 7 * kRungsPerOctave;    // 32000/s
constexpr double kStepS = 1.5;
/// Ladder steps the reference step leaves room for (octaves up to the
/// failing rung plus the bisection); a longer search only lengthens the run.
constexpr int kPlannedRungs = 8;
constexpr double kGraceS = 2.0;  ///< wait for replies after the last due time
constexpr std::size_t kKeptFrames = 2000;  ///< frames per step kept for protocol timing

double rung_rps(int i) {
  return kLadderBaseRps * std::exp2(static_cast<double>(i) / kRungsPerOctave);
}

enum Kind : std::uint8_t { kInfer, kHit, kMiss };

/// Pins this process, and so the daemon and every thread either one starts,
/// to the highest CPU it may run on. Client and daemon then take turns on
/// one core: a request never waits for a wake-up on another core, and the
/// other cores' load does not reach the latencies.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) return;
    std::printf("perfbench: serve pinned to cpu %d\n", cpu);
    return;
  }
}

/// The spawned daemon; shut down (or killed) and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket, const std::string& cache) {
    std::remove(socket.c_str());
    std::remove(cache.c_str());
    const std::string workers = std::to_string(kDaemonWorkers);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, even a killed one.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
      execl(binary.c_str(), "axserve", "serve", "--socket", socket.c_str(), "--cache",
            cache.c_str(), "--workers", workers.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    const auto fd = serve::connect_with_retry(socket, 20000);
    if (!fd) {
      stop();
      throw std::runtime_error("axserve did not come up at " + socket);
    }
    close(*fd);
    socket_ = socket;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Asks for a clean shutdown and reaps the process; kills it on failure.
  bool stop() {
    if (pid_ <= 0) return true;
    bool clean = false;
    try {
      serve::Client c(socket_);
      clean = c.shutdown_server();
    } catch (const std::exception&) {
    }
    if (!clean) kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

struct Pools {
  std::vector<std::string> hot;
  std::vector<std::string> miss;  ///< consumed in order, never repeated
  std::vector<std::vector<std::uint8_t>> lhs;
  std::vector<std::uint8_t> rhs;
  std::vector<std::vector<std::int64_t>> expected_acc;
  std::vector<dse::Objectives> expected_hot;
};

Pools make_pools(std::uint64_t seed, std::size_t misses) {
  Pools p;
  const dse::SpaceSpec space = dse::make_space("paper8");
  Xoshiro256 rng(derive_stream_seed(seed, 1));
  std::set<std::string> seen;
  while (p.hot.size() < kHotKeys) {
    const std::string key = dse::config_key(dse::sample(space, rng));
    if (seen.insert(key).second) p.hot.push_back(key);
  }
  while (p.miss.size() < misses) {
    const std::string key = dse::config_key(dse::sample(space, rng));
    if (seen.insert(key).second) p.miss.push_back(key);
  }
  Xoshiro256 data(derive_stream_seed(seed, 2));
  p.rhs.resize(kDepth * kCols);
  for (auto& v : p.rhs) v = static_cast<std::uint8_t>(data.below(256));
  const nn::MacBackendPtr mac = nn::shared_mac_backend(kInferBackend);
  for (std::size_t i = 0; i < kPanels; ++i) {
    std::vector<std::uint8_t> a(kRows * kDepth);
    for (auto& v : a) v = static_cast<std::uint8_t>(data.below(256));
    std::vector<std::int64_t> acc(kRows * kCols, 0);
    nn::gemm_accumulate(*mac, false, a.data(), p.rhs.data(), acc.data(), kRows, kDepth, kCols, 1);
    p.lhs.push_back(std::move(a));
    p.expected_acc.push_back(std::move(acc));
  }
  for (const std::string& key : p.hot) p.expected_hot.push_back(dse::evaluate(dse::parse_key(key)));
  return p;
}

/// Fills the daemon's cache with the hot pool (one request per key).
void warm(const std::string& socket, const Pools& p) {
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  for (unsigned t = 0; t < kConnections; ++t) {
    pool.emplace_back([&] {
      try {
        serve::Client c(socket);
        for (std::size_t i = next++; i < p.hot.size(); i = next++) {
          if (!c.characterize(p.hot[i]).ok) ok = false;
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (auto& th : pool) th.join();
  if (!ok) throw std::runtime_error("warming the hot key pool failed");
}

struct Req {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  Kind kind = kInfer;
  std::uint32_t item = 0;  ///< panel index, hot key index or miss key index
  ReplyStatus status = ReplyStatus::kMissing;
  [[nodiscard]] bool ok() const { return status == ReplyStatus::kOk; }
};

struct StepResult {
  double rate = 0.0;
  bool rung = false;  ///< a ladder rung (overload is the expected way to fail)
  std::vector<Req> reqs;
  /// Served misses: miss-pool index and the objectives the daemon returned.
  std::vector<std::uint32_t> miss_items;
  std::vector<dse::Objectives> miss_objectives;
  serve::ServerStats before, after;
  std::vector<std::string> request_frames, reply_frames;  ///< traced sample
};

std::vector<double> latencies_ms(const StepResult& s, int kind = -1) {
  std::vector<double> v;
  for (const Req& r : s.reqs) {
    if (kind >= 0 && r.kind != kind) continue;
    v.push_back(r.ok() ? 1e3 * (r.done - r.due) : INFINITY);
  }
  std::sort(v.begin(), v.end());
  return v;
}

class LoadGen {
 public:
  LoadGen(const std::string& socket, const Pools& pools, Tracer& tr)
      : pools_(pools), tr_(tr) {
    for (unsigned c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(socket));
    }
  }

  /// One open-loop step at `rate` for `seconds`.
  StepResult step(double rate, double seconds, bool rung, std::uint64_t seed,
                  std::size_t* next_miss) {
    StepResult res;
    res.rate = rate;
    res.rung = rung;
    Xoshiro256 rng(seed);
    const std::size_t n = static_cast<std::size_t>(std::llround(rate * seconds));
    res.reqs.resize(n);
    double t = 0.0;
    for (Req& r : res.reqs) {
      t += -std::log(1.0 - rng.uniform01()) / rate;  // Poisson arrivals
      const double u = rng.uniform01();
      if (u < kInferShare) {
        r.kind = kInfer;
        r.item = static_cast<std::uint32_t>(rng.below(kPanels));
      } else if (u < 1.0 - kMissShare || *next_miss >= pools_.miss.size()) {
        r.kind = kHit;
        r.item = static_cast<std::uint32_t>(rng.below(pools_.hot.size()));
      } else {
        r.kind = kMiss;
        r.item = static_cast<std::uint32_t>((*next_miss)++);
      }
      r.due = t;
    }
    res.before = serve::parse_server_stats(clients_[0]->stats_json());
    const double base = now_s() + 0.01;
    for (Req& r : res.reqs) r.due += base;
    const std::uint64_t id_base = next_id_;
    next_id_ += n;

    std::atomic<std::size_t> sent_count{0};
    std::atomic<bool> abort{false};
    std::exception_ptr receive_error;
    std::thread receiver([&] {
      try {
        receive(res, id_base, sent_count, abort);
      } catch (...) {
        receive_error = std::current_exception();
        abort = true;
      }
    });
    try {
      for (std::size_t i = 0; i < n && !abort; ++i) {
        send(res, i, id_base);
        sent_count.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      abort = true;
      receiver.join();
      throw;
    }
    receiver.join();
    if (receive_error) std::rethrow_exception(receive_error);
    res.after = serve::parse_server_stats(clients_[0]->stats_json());
    return res;
  }

 private:
  /// Sends request i of the step when it is due.
  void send(StepResult& res, std::size_t i, std::uint64_t id_base) {
    Req& r = res.reqs[i];
    serve::Client& c = *clients_[i % kConnections];
    const double wait = r.due - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    serve::Request q;
    q.id = id_base + i + 1;
    if (r.kind == kInfer) {
      q.op = serve::Op::kInfer;
      q.backend = kInferBackend;
      q.m = kRows;
      q.k = kDepth;
      q.n = kCols;
      q.a = pools_.lhs[r.item];
      q.b = pools_.rhs;
    } else {
      q.op = serve::Op::kCharacterize;
      q.key = r.kind == kHit ? pools_.hot[r.item] : pools_.miss[r.item];
    }
    r.sent = now_s();
    bool ok = false;
    if (tr_.enabled()) {
      std::string frame;
      {
        Tracer::Scope s(tr_, "serve.encode_request");
        frame = serve::encode_request(q);
      }
      ok = serve::write_frame(c.fd(), frame);
      if (res.request_frames.size() < kKeptFrames) res.request_frames.push_back(std::move(frame));
    } else {
      ok = c.send(q);
    }
    if (!ok) throw std::runtime_error("connection to the daemon lost on send");
  }

  void receive(StepResult& res, std::uint64_t id_base, const std::atomic<std::size_t>& sent,
               const std::atomic<bool>& abort) {
    const std::size_t n = res.reqs.size();
    std::size_t answered = 0;
    std::vector<pollfd> fds(kConnections);
    for (unsigned c = 0; c < kConnections; ++c) fds[c] = {clients_[c]->fd(), POLLIN, 0};
    while (answered < n && !abort) {
      const double deadline = (n ? res.reqs.back().due : now_s()) + kGraceS;
      if (now_s() > deadline && sent.load(std::memory_order_acquire) == n) break;
      if (poll(fds.data(), fds.size(), 50) <= 0) continue;
      for (unsigned c = 0; c < kConnections; ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        std::optional<serve::Reply> reply;
        if (tr_.enabled()) {
          std::string payload;
          if (serve::read_frame(clients_[c]->fd(), payload) != serve::FrameStatus::kOk) {
            throw std::runtime_error("daemon connection closed");
          }
          {
            Tracer::Scope s(tr_, "serve.parse_reply");
            reply = serve::parse_reply(payload);
          }
          if (res.reply_frames.size() < kKeptFrames) res.reply_frames.push_back(std::move(payload));
        } else {
          reply = clients_[c]->recv();
        }
        const double t = now_s();
        if (!reply) throw std::runtime_error("daemon connection closed");
        if (reply->id <= id_base || reply->id > id_base + n) continue;
        Req& r = res.reqs[reply->id - id_base - 1];
        if (r.status != ReplyStatus::kMissing) continue;
        r.done = t;
        ++answered;
        r.status = reply_status(*reply,
                                r.kind == kInfer ? &pools_.expected_acc[r.item] : nullptr,
                                r.kind == kHit ? &pools_.expected_hot[r.item] : nullptr);
        if (r.kind == kMiss && r.ok()) {
          res.miss_items.push_back(r.item);
          res.miss_objectives.push_back(reply->objectives);
        }
      }
    }
  }

  const Pools& pools_;
  Tracer& tr_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  // Load ids stay clear of the ids Client::request assigns (stats calls).
  std::uint64_t next_id_ = std::uint64_t{1} << 40;
};

struct StepSummary {
  double p50 = 0.0, p99 = 0.0, lag_p99 = 0.0, achieved = 0.0;
  bool pass = false;
};

/// Median over one-second windows (by due time) of each window's p50: a
/// burst of outside interference spoils one window, not the figure.
double windowed_p50(const StepResult& s) {
  if (s.reqs.empty()) return 0.0;
  const double t0 = s.reqs.front().due;
  std::vector<std::vector<double>> windows;
  for (const Req& r : s.reqs) {
    const auto w = static_cast<std::size_t>(r.due - t0);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r.ok() ? 1e3 * (r.done - r.due) : INFINITY);
  }
  std::vector<double> p50s;
  for (auto& w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    p50s.push_back(percentile(w, 0.5));
  }
  return median(std::move(p50s));
}

StepSummary summarize(const StepResult& s) {
  StepSummary sum;
  const std::vector<double> lat = latencies_ms(s);
  sum.p50 = windowed_p50(s);
  sum.p99 = percentile(lat, 0.99);
  std::vector<double> lag;
  std::size_t ok = 0;
  double first = INFINITY, last = 0.0;
  for (const Req& r : s.reqs) {
    lag.push_back(1e3 * (r.sent - r.due));
    ok += r.ok();
    first = std::min(first, r.due);
    last = std::max(last, r.done);
  }
  std::sort(lag.begin(), lag.end());
  sum.lag_p99 = percentile(lag, 0.99);
  sum.achieved = last > first ? static_cast<double>(ok) / (last - first) : 0.0;
  // The backlog did not grow: the last fifth of the step is served within
  // the limit too (a growing queue makes late requests wait longest).
  std::vector<double> tail;
  for (std::size_t i = s.reqs.size() * 4 / 5; i < s.reqs.size(); ++i) {
    const Req& r = s.reqs[i];
    tail.push_back(r.ok() ? 1e3 * (r.done - r.due) : INFINITY);
  }
  const double tail_p50 = median(tail);
  sum.pass = samples_beyond(lat.size(), 0.99) >= 10 && sum.p99 <= kP99LimitMs &&
             tail_p50 <= kP99LimitMs && sum.lag_p99 <= kP99LimitMs;
  return sum;
}

/// Books every reply of `steps` (see book_replies) and checks the served
/// misses against dse::evaluate. Returns the overload outcomes at ladder
/// rungs.
std::uint64_t check_steps(const std::vector<StepResult>& steps, const Pools& pools,
                          Outcome& out) {
  std::vector<std::pair<std::uint32_t, dse::Objectives>> misses;
  std::uint64_t overload = 0;
  for (const StepResult& s : steps) {
    out.attempt(s.reqs.size());
    std::vector<ReplyStatus> statuses;
    for (const Req& r : s.reqs) statuses.push_back(r.status);
    overload += book_replies(statuses, s.rung,
                             "serve replies at " + std::to_string(std::lround(s.rate)) + "/s", out);
    for (std::size_t i = 0; i < s.miss_items.size(); ++i) {
      misses.emplace_back(s.miss_items[i], s.miss_objectives[i]);
    }
  }
  std::uint64_t mismatched = 0;
  for (const auto& [item, objectives] : misses) {
    mismatched += !same_objectives(dse::evaluate(dse::parse_key(pools.miss[item])), objectives);
  }
  out.check(mismatched == 0, "served misses equal dse::evaluate", mismatched);
  return overload;
}

/// Per-layer metrics of the reference step `r0` (traced runs).
void layer_metrics(const StepResult& r0, const std::vector<StepResult>& steps, Tracer& tracer,
                   Outcome& out, Metrics& metrics) {
  const StepSummary ref = summarize(r0);
  metrics.set("serve.p50_ms", ref.p50, "ms");
  metrics.set("serve.p99_ms", ref.p99, "ms");
  metrics.set("serve.samples", static_cast<double>(r0.reqs.size()), "count");
  const std::pair<const char*, Kind> kinds[] = {
      {"serve.infer", kInfer}, {"serve.characterize_hit", kHit}, {"serve.characterize_miss", kMiss}};
  for (const auto& [name, kind] : kinds) {
    const std::vector<double> lat = latencies_ms(r0, kind);
    const double q = highest_supported_percentile(lat.size());
    metrics.set(std::string(name) + "_p50_ms", percentile(lat, 0.5), "ms");
    metrics.set(std::string(name) + "_tail_ms", percentile(lat, q), "ms");
    metrics.set(std::string(name) + "_tail_pct", 100.0 * q, "%");
    metrics.set(std::string(name) + "_samples", static_cast<double>(lat.size()), "count");
  }
  metrics.set("serve.generator_lag_ms", ref.lag_p99, "ms");
  const auto delta = [&](std::uint64_t serve::ServerStats::*f) {
    return static_cast<double>(r0.after.*f - r0.before.*f);
  };
  const double chars = delta(&serve::ServerStats::characterize_requests);
  metrics.set("serve.reuse_ratio",
              chars > 0 ? (delta(&serve::ServerStats::cache_hits) +
                           delta(&serve::ServerStats::coalesced)) / chars
                        : 0.0,
              "ratio");
  const double batches = delta(&serve::ServerStats::gemm_batches);
  metrics.set("serve.batch_fill_rows",
              batches > 0 ? delta(&serve::ServerStats::gemm_rows) / batches : 0.0, "rows");
  metrics.set("serve.retry_ratio",
              r0.reqs.empty() ? 0.0
                              : delta(&serve::ServerStats::retries) /
                                    static_cast<double>(r0.reqs.size()),
              "ratio");
  // The daemon-side protocol calls, timed on the frames actually exchanged.
  for (const StepResult& s : steps) {
    for (const std::string& f : s.request_frames) {
      std::optional<serve::Request> q;
      {
        Tracer::Scope sp(tracer, "serve.parse_request");
        q = serve::parse_request(f, nullptr);
      }
      out.check(q.has_value(), "sent frame parses as a request");
    }
    for (const std::string& f : s.reply_frames) {
      const std::optional<serve::Reply> reply = serve::parse_reply(f);
      if (!reply) continue;
      Tracer::Scope sp(tracer, "serve.encode_reply");
      (void)serve::encode_reply(*reply);
    }
  }
}

/// Share of the ladder's requests that met overload (retry or no reply).
double overload_ratio(const std::vector<StepResult>& steps, std::uint64_t overload) {
  std::size_t offered = 0;
  for (const StepResult& s : steps) offered += s.rung ? s.reqs.size() : 0;
  return offered ? static_cast<double>(overload) / static_cast<double>(offered) : 0.0;
}

void require_axserve(const Args& args) {
  if (args.axserve.empty()) throw std::invalid_argument("serve needs --axserve");
}

/// The reference step takes the run's seconds not spent on the warm-up
/// and (traced) the ladder.
double reference_seconds(const Args& args) {
  return std::max(2.0, args.seconds - kWarmupS - (args.trace ? kStepS * kPlannedRungs : 0.0));
}

/// Enough fresh keys for every step even if the ladder climbs to the top.
std::size_t miss_pool_size(const Args& args) {
  double offered = kReferenceRps * (2 * reference_seconds(args) + kWarmupS);
  for (int i = kLadderStart; i <= kLadderTop; i += kRungsPerOctave) offered += rung_rps(i) * kStepS;
  offered += rung_rps(kLadderTop) * kStepS * 4;
  return static_cast<std::size_t>(offered * kMissShare * 1.5) + 16;
}

}  // namespace

void run_serve(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  require_axserve(args);
  pin_to_one_cpu();
  std::printf("perfbench: serve load: %u connections, mix infer %.2f / hit %.2f / miss %.2f, "
              "reference %.0f/s, p99 limit %.0f ms, ladder %.0f/s * 2^(i/%d) for i <= %d "
              "from %.0f/s, %.1f s per rung, warm-up %.1f s, %u daemon worker(s)\n",
              kConnections, kInferShare, 1.0 - kInferShare - kMissShare, kMissShare,
              kReferenceRps, kP99LimitMs, kLadderBaseRps, kRungsPerOctave, kLadderTop,
              rung_rps(kLadderStart), kStepS, kWarmupS, kDaemonWorkers);
  const double setup_s = args.trace ? 0.0 : setup_seconds(args, 5);
  const double reference_s = reference_seconds(args);
  const Pools pools = make_pools(args.seed, miss_pool_size(args));
  const std::string socket = args.workdir + "/axserve.sock";
  auto daemon = std::make_unique<Daemon>(args.axserve, socket, args.workdir + "/axserve.cache");
  warm(socket, pools);

  Tracer quiet(false);
  std::size_t next_miss = 0;
  std::uint64_t step_seed = derive_stream_seed(args.seed, 3);
  double untraced_p50 = 0.0;
  std::vector<StepResult> steps;
  if (args.trace) {
    LoadGen probe(socket, pools, quiet);
    steps.push_back(probe.step(kReferenceRps, std::min(reference_s, 3.0), false, step_seed++,
                               &next_miss));
    untraced_p50 = summarize(steps.back()).p50;
  }
  LoadGen gen(socket, pools, tracer);
  // Warm-up at the reference rate (connections, allocator, daemon threads);
  // its replies are checked like the others but not reported.
  steps.push_back(gen.step(kReferenceRps, kWarmupS, false, step_seed++, &next_miss));
  steps.push_back(gen.step(kReferenceRps, reference_s, false, step_seed++, &next_miss));
  const std::size_t ref_step = steps.size() - 1;
  const StepSummary ref = summarize(steps[ref_step]);
  const auto report_reference = [&] {
    const StepResult& r0 = steps[ref_step];
    std::printf("perfbench: serve reference %.0f/s: %zu samples, p50 %.4f ms p99 %.4f ms "
                "(p50 infer %.4f hit %.4f miss %.4f)\n",
                kReferenceRps, r0.reqs.size(), ref.p50, ref.p99,
                percentile(latencies_ms(r0, kInfer), 0.5),
                percentile(latencies_ms(r0, kHit), 0.5),
                percentile(latencies_ms(r0, kMiss), 0.5));
  };

  if (!args.trace) {
    out.check(daemon->stop(), "daemon shut down cleanly");
    check_steps(steps, pools, out);
    report_reference();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("job_ms", ref.p50, "ms");
    metrics.set("peak_rss_mb", peak_rss_mb(/*children=*/true), "MB");
    return;
  }

  // The ladder search: highest passing rung `lo`, lowest failing rung `hi`.
  int lo = -1, hi = kLadderTop + 1;
  double max_rps = 0.0;
  const auto try_rung = [&](int i) {
    steps.push_back(gen.step(rung_rps(i), kStepS, true, step_seed++, &next_miss));
    const StepSummary s = summarize(steps.back());
    std::size_t overloaded = 0;
    for (const Req& r : steps.back().reqs) {
      overloaded += r.status == ReplyStatus::kRetry || r.status == ReplyStatus::kMissing;
    }
    std::printf("perfbench: serve rung %d (%.0f/s): p50 %.3f ms p99 %.3f ms lag p99 %.3f ms "
                "achieved %.1f/s overload %zu/%zu %s\n",
                i, rung_rps(i), s.p50, s.p99, s.lag_p99, s.achieved, overloaded,
                steps.back().reqs.size(), s.pass ? "pass" : "FAIL");
    if (s.pass) {
      lo = i;
      max_rps = s.achieved;
    } else {
      hi = i;
    }
    return s.pass;
  };
  for (int i = kLadderStart; i <= kLadderTop; i += kRungsPerOctave) {
    if (!try_rung(i)) break;
  }
  while (hi - lo > 1) try_rung((lo + hi) / 2);
  if (hi > kLadderTop) std::printf("perfbench: serve ladder top passed; max_rps is capped\n");
  out.check(daemon->stop(), "daemon shut down cleanly");
  const std::uint64_t overload = check_steps(steps, pools, out);

  report_reference();
  std::printf("perfbench: serve highest passing rung %d (%.0f/s), max rps %.1f; "
              "ladder overload outcomes %" PRIu64 "\n",
              lo, lo >= 0 ? rung_rps(lo) : 0.0, max_rps, overload);
  const StepResult& r0 = steps[ref_step];
  metrics.set("serve.max_rps", max_rps, "1/s");
  metrics.set("serve.overload_ratio", overload_ratio(steps, overload), "ratio");
  metrics.set("trace.overhead_ratio", (ref.p50 - untraced_p50) / untraced_p50, "ratio");
  layer_metrics(r0, steps, tracer, out, metrics);
}

void set_up_serve(const Args& args) {
  require_axserve(args);
  const Pools pools = make_pools(args.seed, miss_pool_size(args));
  Daemon daemon(args.axserve, args.workdir + "/axserve.sock", args.workdir + "/axserve.cache");
  warm(daemon.socket(), pools);
  if (!daemon.stop()) throw std::runtime_error("daemon did not shut down cleanly");
}

void probe_serve_layers(const Args& args, Tracer& tracer, Outcome& out, Metrics& metrics) {
  require_axserve(args);
  const Pools pools = make_pools(args.seed, 64);
  Daemon daemon(args.axserve, args.workdir + "/probe-axserve.sock",
                args.workdir + "/probe-axserve.cache");
  warm(daemon.socket(), pools);
  std::size_t next_miss = 0;
  std::vector<StepResult> steps;
  {
    LoadGen gen(daemon.socket(), pools, tracer);
    steps.push_back(
        gen.step(kReferenceRps, kWarmupS, false, derive_stream_seed(args.seed, 4), &next_miss));
  }
  out.check(daemon.stop(), "probe daemon shut down cleanly");
  check_steps(steps, pools, out);
  layer_metrics(steps[0], steps, tracer, out, metrics);
  // The probe runs no ladder.
  metrics.set("serve.max_rps", 0.0, "1/s");
  metrics.set("serve.overload_ratio", 0.0, "ratio");
}

ReplyStatus reply_status(const serve::Reply& reply, const std::vector<std::int64_t>* acc,
                         const dse::Objectives* objectives) {
  if (reply.retry) return ReplyStatus::kRetry;
  if (!reply.ok) return ReplyStatus::kError;
  if (acc) return reply.acc == *acc ? ReplyStatus::kOk : ReplyStatus::kWrong;
  if (!reply.has_objectives) return ReplyStatus::kWrong;
  if (objectives && !same_objectives(reply.objectives, *objectives)) return ReplyStatus::kWrong;
  return ReplyStatus::kOk;
}

std::uint64_t book_replies(const std::vector<ReplyStatus>& statuses, bool rung,
                           const std::string& what, Outcome& out) {
  std::uint64_t wrong = 0, errors = 0, overload = 0;
  for (const ReplyStatus st : statuses) {
    wrong += st == ReplyStatus::kWrong;
    errors += st == ReplyStatus::kError;
    overload += st == ReplyStatus::kRetry || st == ReplyStatus::kMissing;
  }
  out.check(wrong == 0, what + ": served results equal the direct calls", wrong);
  if (errors) out.fail(what + ": error replies", errors);
  if (overload && !rung) out.fail(what + ": retry replies or no reply in time", overload);
  return rung ? overload : 0;
}

}  // namespace perfbench
