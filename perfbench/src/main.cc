// perfbench: the layered benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-out PATH]
//
// Prints the host line, the sample counts, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when the correctness gate fails, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "kernels/dispatch.h"
#include "perfbench/src/bench.h"

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Report::Count(std::uint64_t n, std::uint64_t failures,
                   const std::string& what) {
  attempted += n;
  failed += failures;
  if (failures > 0) {
    correct = false;
    std::fprintf(stderr, "gate failed: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(n));
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Samples::SecondlyQuantile(double q) const {
  std::map<std::uint32_t, std::vector<double>> by_second;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    by_second[seconds_[i]].push_back(values_[i]);
  }
  std::vector<double> quantiles;
  for (auto& [second, values] : by_second) {
    quantiles.push_back(Quantile(std::move(values), q));
  }
  return perfbench::Median(std::move(quantiles));
}

double ResidentMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::size_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(std::size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanLog* Tracer::NewLog(const std::string& thread_name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(thread_name, epoch_));
  return logs_.back().get();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> totals;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_s[static_cast<std::size_t>(span.parent)] +=
            1e-9 * static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration =
          1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SpanTotals& entry = totals[spans[i].name];
      ++entry.count;
      entry.total_s += duration;
      entry.self_s += duration - child_s[i];
    }
  }
  return totals;
}

std::uint64_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t count = 0;
  for (const auto& log : logs_) count += log->spans().size();
  return count;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(out,
                   "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%d,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   log->thread_name().c_str(), i, spans[i].parent,
                   spans[i].name, static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench

namespace {

void PrintMetrics(const std::map<std::string, perfbench::Metric>& metrics,
                  perfbench::Report* report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report->correct ? "true" : "false",
              static_cast<unsigned long long>(report->attempted),
              static_cast<unsigned long long>(report->failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 120.0) {
    return Usage("--seconds must be in (0, 120]");
  }

  // The host line: numbers are only attributable to a named host.
  std::printf("{\"host\": {\"nproc\": %zu, \"cpu\": \"%s\", "
              "\"kernel_tier\": \"%s\", \"build_type\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}}\n",
              umicro::bench::HostCores(),
              umicro::bench::HostCpuModel().c_str(),
              umicro::kernels::BackendName(
                  umicro::kernels::DetectBackend()),
              PERFBENCH_BUILD_TYPE, options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) {
    return Usage(("unknown workload: " + options.workload).c_str());
  }

  std::printf("{\"samples\": {");
  bool first = true;
  for (const auto& [name, count] : report.samples) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("}}\n");

  auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  for (auto& [name, metric] : metrics) {
    report.Check(std::isfinite(metric.value), "finite metric " + name);
    if (!std::isfinite(metric.value)) metric.value = 0.0;
  }
  PrintMetrics(metrics, &report);
  return report.correct ? 0 : 1;
}
