// The fan-out and parallel-call probes shared by the workloads.
#include <algorithm>
#include <thread>

#include "common/parallel_for.hpp"
#include "workloads.hpp"

namespace perfbench {

unsigned fan_out() { return 1; }

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

double parallel_call_us(unsigned threads) {
  std::vector<double> calls;
  std::vector<std::uint64_t> sink(threads, 0);
  for (int rep = 0; rep < 400; ++rep) {
    const double t0 = now_s();
    axmult::parallel_chunks(threads, threads, [&] {
      return [&](std::uint64_t chunk) { sink[chunk] += chunk + 1; };
    });
    calls.push_back(now_s() - t0);
  }
  return 1e6 * median(std::move(calls));
}

}  // namespace perfbench
