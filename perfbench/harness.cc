#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace perfbench {

namespace fs = std::filesystem;

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

bool Oracle::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failed_;
  }
  return ok;
}

Counters Counters::Capture() {
  Counters c;
  c.snap_ = auxview::obs::MetricsRegistry::Global().Snapshot();
  return c;
}

namespace {
bool Matches(const std::string& name, const std::string& prefix,
             const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

int64_t Counters::CounterSum(const std::string& prefix,
                             const std::string& suffix) const {
  int64_t sum = 0;
  for (const auto& c : snap_.counters) {
    if (Matches(c.name, prefix, suffix)) sum += c.value;
  }
  return sum;
}

double Counters::HistSum(const std::string& name) const {
  const auto* h = snap_.FindHistogram(name);
  return h == nullptr ? 0 : h->sum;
}

double Counters::HistSumMatching(const std::string& prefix,
                                 const std::string& suffix) const {
  double sum = 0;
  for (const auto& h : snap_.histograms) {
    if (Matches(h.name, prefix, suffix)) sum += h.sum;
  }
  return sum;
}

int64_t Counters::HistCount(const std::string& name) const {
  const auto* h = snap_.FindHistogram(name);
  return h == nullptr ? 0 : h->count;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = 1e3 * MsSince(origin_);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_us = 1e3 * MsSince(origin_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::AddChild(int parent, const std::string& name, double duration_us) {
  if (parent < 0) return;
  const Span& p = spans_[static_cast<size_t>(parent)];
  Span span;
  span.name = name;
  span.request = p.request;
  span.parent = parent;
  span.start_us = p.start_us;
  span.end_us = p.start_us + duration_us;
  spans_.push_back(std::move(span));
}

Samples Tracer::SelfMs(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  Samples self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const double dur = spans_[i].end_us - spans_[i].start_us;
    self.Add(std::max(0.0, dur - child_us[i]) / 1e3);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": %s, \"request\": %lld, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, auxview::obs::JsonString(s.name).c_str(),
                 static_cast<long long>(s.request), s.parent, s.start_us,
                 s.end_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  entries_.push_back({name, value, unit, samples});
}

void Report::AddMedian(const std::string& name, const Samples& samples,
                       const std::string& unit) {
  Add(name, samples.Median(), unit, static_cast<int64_t>(samples.size()));
}

void Report::PrintLines() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %14.6g %-6s n=%lld\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples));
  }
}

void Report::Print(const Oracle& oracle) const {
  PrintLines();
  std::string json = "{\"correct\": ";
  json += oracle.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(oracle.attempted());
  json += ", \"failed\": " + std::to_string(oracle.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", e.value);
    json += (i ? ", " : "") + auxview::obs::JsonString(e.name) +
            ": {\"value\": " + value +
            ", \"unit\": " + auxview::obs::JsonString(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

}  // namespace perfbench
