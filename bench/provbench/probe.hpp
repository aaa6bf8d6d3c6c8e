// provbench measurement primitives: real clocks, exact percentiles, the
// in-memory span log of a traced rep, meter algebra and a flat JSON writer.
//
// Everything here observes the library from outside. Virtual time comes
// from the ledger and the meter; real time from the process and thread CPU
// clocks. The two are never mixed in one number.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/metering.hpp"

namespace provbench {

namespace sim = provcloud::sim;

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds of a fixed kernel built from the standard library alone, so
/// no change to the system under test can speed it up: a string-keyed map
/// of small vectors built and probed (the simulator's indexes), then a hash
/// pass over 8 MiB (its checksums): about 70 ms on a 2.1 GHz Xeon vCPU. On a
/// shared machine the same work takes 10-15% more CPU at busy times --
/// cache and memory contention from neighbours -- and the kernel slows with
/// it.
inline double calibration_cpu_s() {
  const double t0 = process_cpu_s();
  std::map<std::string, std::vector<std::uint64_t>> index;
  std::string key;
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    key = "tenant/" + std::to_string(i * 2654435761u % 1000003) + "/obj:" +
          std::to_string(i & 15);
    index[key].push_back(i);
  }
  for (std::uint64_t i = 0; i < 60000; ++i) {
    key = "tenant/" + std::to_string(i * 40503u % 1000003) + "/obj:" +
          std::to_string(i & 15);
    const auto it = index.find(key);
    if (it != index.end()) h += it->second.size();
  }
  std::vector<unsigned char> bytes(8 << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 131);
  for (const unsigned char b : bytes) h = (h ^ b) * 1099511628211ull;
  static std::atomic<std::uint64_t> sink;
  sink.store(h, std::memory_order_relaxed);
  return process_cpu_s() - t0;
}

/// Exact nearest-rank percentile: the ceil(q * n)-th smallest sample.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

// --- registry histograms ---------------------------------------------------

/// Bucket index -> sample count of a registry histogram.
using Buckets = std::map<std::size_t, std::uint64_t>;

/// The exact bucket counts behind a registry histogram, recovered through
/// its public quantile(): quantile((r - 0.5) / n) is the upper edge of rank
/// r's bucket (clamped to the maximum), so a binary search over ranks finds
/// where each bucket ends.
inline Buckets histogram_buckets(const provcloud::obs::Histogram& h) {
  using provcloud::obs::Histogram;
  const std::uint64_t n = h.count();
  const auto edge = [&h, n](std::uint64_t rank) {
    return h.quantile((static_cast<double>(rank) - 0.5) / static_cast<double>(n));
  };
  Buckets out;
  std::uint64_t first = 1;
  while (first <= n) {
    const std::uint64_t value = edge(first);
    std::uint64_t lo = first, hi = n;  // last rank with the same edge
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (edge(mid) == value) lo = mid; else hi = mid - 1;
    }
    out[Histogram::bucket_index(value)] = lo - first + 1;
    first = lo + 1;
  }
  return out;
}

/// after - before, bucket-wise: the samples recorded between two reads.
inline Buckets bucket_diff(const Buckets& after, const Buckets& before) {
  Buckets out = after;
  for (const auto& [bucket, count] : before) {
    out[bucket] -= count;
    if (out[bucket] == 0) out.erase(bucket);
  }
  return out;
}

inline std::uint64_t bucket_count(const Buckets& b) {
  std::uint64_t n = 0;
  for (const auto& [bucket, count] : b) n += count;
  return n;
}

/// Nearest-rank quantile reported as the bucket's upper edge (what the
/// registry itself reports).
inline double bucket_quantile(const Buckets& b, double q) {
  const std::uint64_t n = bucket_count(b);
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : b) {
    seen += count;
    if (seen >= rank)
      return static_cast<double>(provcloud::obs::Histogram::bucket_upper(bucket));
  }
  return 0.0;
}

/// One value per sample. The registry keeps only 1/8-wide log-linear
/// buckets, so the k-th of m samples in bucket [lo, hi] is placed by linear
/// interpolation at lo + (hi + 1 - lo) * (k - 0.5) / m. Percentiles of the
/// result move with the data instead of jumping between bucket edges.
inline std::vector<double> bucket_samples(const Buckets& b) {
  using provcloud::obs::Histogram;
  std::vector<double> out;
  for (const auto& [bucket, m] : b) {
    const double lower = static_cast<double>(Histogram::bucket_lower(bucket));
    const double width =
        static_cast<double>(Histogram::bucket_upper(bucket)) + 1.0 - lower;
    for (std::uint64_t k = 1; k <= m; ++k)
      out.push_back(lower + width * (static_cast<double>(k) - 0.5) /
                                static_cast<double>(m));
  }
  return out;
}

// --- meter algebra ---------------------------------------------------------

/// a += b, counter-wise (storage gauges untouched).
inline void meter_add(sim::MeterSnapshot& a, const sim::MeterSnapshot& b) {
  for (const auto& [key, c] : b.counters) {
    sim::OpCounter& t = a.counters[key];
    t.calls += c.calls;
    t.bytes_in += c.bytes_in;
    t.bytes_out += c.bytes_out;
  }
}

/// a - b, counter-wise; false when some counter of b exceeds a's.
inline bool meter_sub(const sim::MeterSnapshot& a, const sim::MeterSnapshot& b,
                      sim::MeterSnapshot& out) {
  out = sim::MeterSnapshot{};
  for (const auto& [key, c] : a.counters) out.counters[key] = c;
  for (const auto& [key, c] : b.counters) {
    sim::OpCounter& t = out.counters[key];
    if (t.calls < c.calls || t.bytes_in < c.bytes_in || t.bytes_out < c.bytes_out)
      return false;
    t.calls -= c.calls;
    t.bytes_in -= c.bytes_in;
    t.bytes_out -= c.bytes_out;
  }
  return true;
}

// --- spans -----------------------------------------------------------------

/// Spans of one traced rep: `<layer>.<call>` around every public call the
/// benchmark makes, nested by scope on the one driver thread. Self time
/// (a span's CPU minus its direct children's) is summed per name online,
/// for the spans opened after begin_window(). The first kRetained spans are
/// also kept, with start, end, parent and the operation they served, for
/// the Chrome trace. A null log makes every Scope a no-op, so untraced reps
/// pay one branch per call.
class SpanLog {
 public:
  static constexpr std::size_t kRetained = 200000;

  struct Span {
    const char* name;
    long parent;  // retained index, -1 at top level or when not retained
    std::uint64_t op;
    std::uint64_t wall0, wall1, cpu0, cpu1;
  };

  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t op) : log_(log) {
      if (log_ != nullptr) log_->open(name, op);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  /// Self times count from here on (the start of the timed phase).
  void begin_window() { counting_ = true; }

  /// Self CPU ms per span name, over the timed window.
  const std::map<std::string, double, std::less<>>& self_cpu_ms() const {
    return self_ms_;
  }

  /// Chrome trace-event JSON of the retained spans (wall-clock
  /// microseconds; args carry the parent span, the op id and the span's own
  /// CPU time).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t base = retained_.empty() ? 0 : retained_.front().wall0;
    std::fprintf(f, "{\"otherData\":{\"spans\":%zu,\"retained\":%zu},"
                    "\"traceEvents\":[\n", total_, retained_.size());
    for (std::size_t i = 0; i < retained_.size(); ++i) {
      const Span& s = retained_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"provbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%zu,\"parent\":%ld,\"op\":%llu,\"cpu_us\":%.3f}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.wall0 - base) / 1e3,
                   static_cast<double>(s.wall1 - s.wall0) / 1e3, i, s.parent,
                   static_cast<unsigned long long>(s.op),
                   static_cast<double>(s.cpu1 - s.cpu0) / 1e3);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    long retained;        // index into retained_, or -1
    std::uint64_t cpu0;
    std::uint64_t child_cpu;
    bool counted;
  };

  void open(const char* name, std::uint64_t op) {
    const long parent = stack_.empty() ? -1 : stack_.back().retained;
    long index = -1;
    const std::uint64_t cpu = thread_cpu_ns();
    if (retained_.size() < kRetained) {
      index = static_cast<long>(retained_.size());
      retained_.push_back(Span{name, parent, op, wall_ns(), 0, cpu, 0});
    }
    stack_.push_back(Open{name, index, cpu, 0, counting_});
    ++total_;
  }

  void close() {
    const std::uint64_t cpu = thread_cpu_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = cpu - o.cpu0;
    if (o.counted) {
      auto it = self_ms_.find(o.name);
      if (it == self_ms_.end()) it = self_ms_.emplace(o.name, 0.0).first;
      it->second += static_cast<double>(dur - o.child_cpu) / 1e6;
    }
    if (!stack_.empty()) stack_.back().child_cpu += dur;
    if (o.retained >= 0) {
      Span& s = retained_[static_cast<std::size_t>(o.retained)];
      s.cpu1 = cpu;
      s.wall1 = wall_ns();
    }
  }

  std::vector<Span> retained_;
  std::vector<Open> stack_;
  std::map<std::string, double, std::less<>> self_ms_;
  std::size_t total_ = 0;
  bool counting_ = false;
};

// --- JSON ------------------------------------------------------------------

/// A number with every digit it has ("%.17g"), or null when not finite.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

/// Builds one JSON object field by field; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace provbench
