#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int Trace::open(const std::string& name, long op, int parent) {
  if (!enabled_) return -1;
  const double now = ms_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::close(int index) {
  if (index < 0) return;
  const double now = ms_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ms = now;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

double Trace::self_ms(int index) const {
  if (index < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& span = spans_[static_cast<std::size_t>(index)];
  double children = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == index) children += s.duration_ms();
  }
  return span.duration_ms() - children;
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"parent\": %d, \"op\": %ld}\n",
                  i, statsize::util::JsonWriter::escape(s.name).c_str(), s.start_ms, s.end_ms,
                  s.parent, s.op);
    out << line;
  }
  return static_cast<bool>(out);
}

void Result::op(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (logged_++ < 10) std::fprintf(stderr, "perfbench: operation failed: %s\n", why.c_str());
}

void Result::check(bool ok, const std::string& why) {
  if (ok) return;
  checks_ok_ = false;
  if (logged_++ < 10) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

}  // namespace perfbench
