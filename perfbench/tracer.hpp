// The benchmark's own observer.  Tracer is an obs::Sink attached through the
// library's public `sink` fields (SweepOptions, ServerConfig,
// ControllerConfig, CompileOptions): it keeps wall-clock host spans and
// counters in memory and drops the simulated-phase spans, which describe
// simulated time, not where the host spent its time.  The benchmark adds
// its own spans around its calls into each layer with Tracer::Scope, and
// the whole record is written as a Chrome/Perfetto trace when a run ends.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "tilo/obs/sink.hpp"

namespace perfbench {

class Tracer final : public tilo::obs::Sink {
 public:
  struct Span {
    std::string name;
    i64 start = 0;
    i64 end = 0;
    int lane = 0;
  };

  /// Lane of the benchmark's own spans in the written trace.
  static constexpr int kBenchLane = 1000;

  /// A benchmark span from construction to destruction; inert when the
  /// tracer is null, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name)
        : tracer_(tracer), name_(std::move(name)), t0_(tracer ? now_ns() : 0) {}
    ~Scope() {
      if (tracer_) tracer_->host_span(name_, t0_, now_ns(), kBenchLane);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    i64 t0_;
  };

  void span(int node, tilo::obs::Phase phase, tilo::obs::Time start,
            tilo::obs::Time end, std::string_view label) override;
  void host_span(std::string_view name, tilo::obs::Time start_ns,
                 tilo::obs::Time end_ns, int lane) override;
  void counter(std::string_view name, double delta) override;

  /// Spans whose name starts with `prefix`, in emission order.
  std::vector<Span> spans(std::string_view prefix) const;
  /// The summed value of a counter (0 when never bumped).
  double count(const std::string& name) const;

  /// Writes every span as a Chrome trace-event file (Perfetto loads it).
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> counters_;
};

/// The part of [start, end) that none of `children` covers: a layer's self
/// time when the children are the spans it called.
i64 self_time(i64 start, i64 end, std::vector<std::pair<i64, i64>> children);

}  // namespace perfbench
