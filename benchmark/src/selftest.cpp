// bench_selftest: the benchmark's own rules, checked without running a
// workload — statistics, self time, open-loop timing and digests.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/statistics.hpp"
#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

bool near_all(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!near(got[i], want[i])) return false;
  }
  return true;
}

void statistics() {
  using batbench::quartiles;
  // References from Python: statistics.quantiles(values, n=4).
  expect(near_all(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                  {2.75, 5.5, 8.25}),
         "quartiles of 1..10 match Python");
  expect(near_all(quartiles({3, 1, 2}), {1.0, 2.0, 3.0}),
         "quartiles of three values match Python");
  expect(near_all(quartiles({5.0, 1.0}), {0.0, 3.0, 6.0}),
         "quartiles of two values extrapolate like Python");
  expect(near_all(quartiles({0.9, 1.3, 1.1, 1.2, 1.0, 1.05, 0.95}),
                  {0.95, 1.05, 1.2}),
         "quartiles of seven unsorted values match Python");
  expect(near(bat::common::median(std::vector<double>{4.0, 1.0, 3.0, 2.0}),
              2.5),
         "median of an even sample is the mid-pair mean");

  using batbench::tail_percentile;
  expect(!tail_percentile(19).has_value(),
         "19 samples: no percentile has ten beyond it");
  expect(tail_percentile(20) == 50.0, "20 samples: the median");
  expect(tail_percentile(999) == 90.0, "999 samples: p90");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(100000) == 99.99, "100000 samples: p99.99");

  using batbench::slowest_tenth_mean;
  expect(near(slowest_tenth_mean({2.0, 9.0, 4.0}), 9.0),
         "slowest tenth of three values is the slowest one");
  std::vector<double> sixteen;
  for (int i = 1; i <= 16; ++i) sixteen.push_back(i);
  expect(near(slowest_tenth_mean(sixteen), 15.5),
         "slowest tenth of sixteen values averages the slowest two");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(near(slowest_tenth_mean(hundred), 95.5),
         "slowest tenth of 1..100 averages 91..100");
}

void self_time() {
  using batbench::SpanRecord;
  // parent [0,100]; a [10,40] with grandchild [15,20]; b [30,60]
  // overlapping a (another thread); c [90,120] sticking out of parent.
  const std::vector<SpanRecord> spans{
      {"parent", 0, 100, 1, 0, 1}, {"a", 10, 40, 2, 1, 1},
      {"g", 15, 20, 5, 2, 1},      {"b", 30, 60, 3, 1, 2},
      {"c", 90, 120, 4, 1, 3},
  };
  const auto self = batbench::self_times(spans);
  expect(self[0] == 40, "parent self = 100 - |[10,60] u [90,100]|");
  expect(self[1] == 25, "nested child loses its grandchild's interval");
  expect(self[2] == 5 && self[3] == 30 && self[4] == 30,
         "leaves keep their whole duration");
  const auto totals = batbench::totals_by_name(spans);
  expect(near(totals.at("parent").self_s, 40e-9) &&
             totals.at("a").count == 1,
         "totals sum self time per name");

  // Live spans: nesting through the thread-local parent, and an
  // explicit parent for work handed to another thread.
  batbench::Tracer::clear();
  batbench::Tracer::set_enabled(true);
  {
    batbench::Span root("root");
    { batbench::Span child("child"); }
    std::thread([parent = root.id()] {
      batbench::Span remote("remote", parent);
    }).join();
  }
  batbench::Tracer::set_enabled(false);
  { batbench::Span ignored("ignored"); }
  const auto live = batbench::Tracer::collect();
  batbench::Tracer::clear();
  std::uint64_t root_id = 0;
  for (const auto& s : live) {
    if (std::string(s.name) == "root") root_id = s.id;
  }
  bool parented = live.size() == 3 && root_id != 0;
  for (const auto& s : live) {
    if (std::string(s.name) != "root") parented = parented && s.parent == root_id;
  }
  expect(parented, "spans record thread-local and explicit parents only "
                   "while enabled");
}

void open_loop() {
  // 1000 req/s on one connection; request 0 stalls the handler 50 ms.
  const auto samples = batbench::run_open_loop(
      1000.0, 0.1, 1, [](std::size_t, std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return true;
      });
  expect(samples.size() == 100, "open loop issues rate x seconds requests");
  expect(samples[1].late_s() >= 0.045 && samples[1].latency_s() >= 0.045,
         "a request queued behind the stall is timed from its due time");
  expect(samples[99].latency_s() < 0.02,
         "latency recovers once the backlog drains");
  bool ordered = true;
  for (const auto& s : samples) ordered = ordered && s.sent_s >= s.due_s - 1e-3;
  expect(ordered, "no request is sent before it is due");
}

void setups() {
  int runs = 0;
  int teardowns = 0;
  const auto quick = batbench::repeat_setup(
      11, 0.0, 500, [&] { ++runs; }, [&] { ++teardowns; });
  expect(quick.size() == 11 && runs == 11 && teardowns == 10,
         "set-up repeats at least the minimum count, tearing down between");
  const auto timed = batbench::repeat_setup(
      2, 0.05, 500,
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); });
  double total = 0.0;
  for (const double t : timed) total += t;
  expect(timed.size() >= 2 && total >= 0.05 &&
             (timed.size() == 2 || total - timed.back() < 0.05),
         "set-up repeats until the minimum time has passed, then stops");
  const auto capped = batbench::repeat_setup(1, 10.0, 3, [] {});
  expect(capped.size() == 3, "set-up stops at the maximum count");
}

void digests() {
  expect(batbench::Digest().hex() == "cbf29ce484222325",
         "empty digest is the FNV-1a offset basis");
  const std::vector<bat::core::TraceEntry> trace{{3, 1.5}, {7, 0.25}};
  batbench::Digest a;
  batbench::add_session(a, "completed", trace);
  batbench::Digest b;
  batbench::add_session(b, "completed", trace);
  expect(a.hex() == b.hex(), "digest is deterministic");
  // Reference computed independently (Python FNV-1a over the same
  // little-endian byte layout).
  expect(a.hex() == "d4043f25095ae248", "digest is stable across builds");
  const std::vector<bat::core::TraceEntry> swapped{{7, 0.25}, {3, 1.5}};
  batbench::Digest c;
  batbench::add_session(c, "completed", swapped);
  expect(c.hex() != a.hex(), "digest depends on trace order");
  expect(batbench::mix_seed(1, 0) != batbench::mix_seed(1, 1) &&
             batbench::mix_seed(1, 0) == batbench::mix_seed(1, 0),
         "derived seeds are deterministic and distinct");
}

}  // namespace

int main() {
  statistics();
  self_time();
  open_loop();
  setups();
  digests();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
