// Wall-clock spans around the benchmark's calls into the p3q layers.
//
// Every timed call goes through Timed(): it always returns the call's
// duration (the end-to-end metrics are sums of these), and when a recorder
// is attached — the traced run — it also records a span with its name,
// start, end and parent (the span open around it). Spans stay in memory and
// are written out when the run ends; a layer's self time is its spans'
// durations minus the part their child spans cover.
#ifndef P3Q_PERFBENCH_SPANS_H_
#define P3Q_PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace p3q::perfbench {

/// One recorded span; times are seconds since the recorder was created.
struct Span {
  std::string name;  ///< "<layer>.<operation>", e.g. "sim.lazy.cycle"
  int parent = -1;   ///< index of the enclosing span, -1 at top level
  double start = 0;
  double end = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(const std::string& name);
  void End(int id);

  /// Self time per layer (the span name up to its first '.').
  std::map<std::string, double> SelfTimeByLayer() const;
  /// Writes the spans as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// Runs `fn`, returns its wall time in seconds, and records it as span
/// `name` when `recorder` is non-null.
template <typename Fn>
double Timed(SpanRecorder* recorder, const char* name, Fn&& fn) {
  const int id = recorder != nullptr ? recorder->Begin(name) : -1;
  const auto start = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (recorder != nullptr) recorder->End(id);
  return seconds;
}

}  // namespace p3q::perfbench

#endif  // P3Q_PERFBENCH_SPANS_H_
