#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Tracer::span(int, tilo::obs::Phase, tilo::obs::Time, tilo::obs::Time,
                  std::string_view) {}

void Tracer::host_span(std::string_view name, tilo::obs::Time start_ns,
                       tilo::obs::Time end_ns, int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), start_ns, end_ns, lane});
}

void Tracer::counter(std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

std::vector<Tracer::Span> Tracer::spans(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_)
    if (std::string_view(s.name).substr(0, prefix.size()) == prefix)
      out.push_back(s);
  return out;
}

double Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const i64 epoch = spans_.empty() ? 0 : std::min_element(
      spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        return a.start < b.start;
      })->start;
  os << "{\"traceEvents\":[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    for (const char c : s.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += c;
    }
    std::snprintf(buf, sizeof buf,
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                  static_cast<double>(s.start - epoch) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, s.lane);
    os << "{\"name\":\"" << name << "\",\"ph\":\"X\"," << buf << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

i64 self_time(i64 start, i64 end, std::vector<std::pair<i64, i64>> children) {
  std::sort(children.begin(), children.end());
  i64 covered = 0;
  i64 cursor = start;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += hi - lo;
    cursor = hi;
  }
  return (end - start) - covered;
}

}  // namespace perfbench
