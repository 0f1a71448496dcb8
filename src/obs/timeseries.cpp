#include "obs/timeseries.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace gc::obs {

TimeSeries& TimeSeries::instance() {
  static TimeSeries* series = new TimeSeries();  // leaked: outlive all callers
  return *series;
}

void TimeSeries::set_interval(double seconds) {
  GC_CHECK_MSG(seconds > 0.0, "time-series interval must be positive");
  interval_s_.store(seconds, std::memory_order_relaxed);
}

void TimeSeries::sample(double t) {
  if (!enabled()) return;
  Sample s;
  s.t = t;
  s.snap = Metrics::instance().snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(std::move(s));
}

std::size_t TimeSeries::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

std::string TimeSeries::to_jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const Sample& s : samples_) {
    out << "{\"t\": " << fmt_double(s.t) << ", \"counters\": {";
    bool first = true;
    for (const auto& [key, v] : s.snap.counters) {
      if (!first) out << ", ";
      out << '"' << escape_json(key) << "\": " << v;
      first = false;
    }
    out << "}, \"gauges\": {";
    first = true;
    for (const auto& [key, v] : s.snap.gauges) {
      if (!first) out << ", ";
      out << '"' << escape_json(key) << "\": " << fmt_double(v);
      first = false;
    }
    out << "}, \"histograms\": {";
    first = true;
    for (const auto& h : s.snap.histograms) {
      if (!first) out << ", ";
      out << '"' << escape_json(h.key) << "\": {\"count\": " << h.count
          << ", \"sum\": " << fmt_double(h.sum) << '}';
      first = false;
    }
    out << "}}\n";
  }
  return out.str();
}

Status TimeSeries::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return make_error(ErrorCode::kIoError, "cannot open " + path);
  }
  out << to_jsonl();
  out.flush();
  if (!out) {
    return make_error(ErrorCode::kIoError, "short write to " + path);
  }
  return Status::ok();
}

void TimeSeries::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
}

void TimeSeries::start_wall_sampler() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (worker_.joinable()) return;  // already sampling
  stop_requested_ = false;
  // Sampling service thread, not data-parallel work for the shared pool.
  worker_ = std::thread([this] {  // gclint: allow(thread) sampler backend
    sample(wall_seconds());
    std::unique_lock<std::mutex> lock(thread_mutex_);
    while (!stop_requested_) {
      const auto period = std::chrono::duration<double>(interval());
      if (thread_cv_.wait_for(lock, period,
                              [this] { return stop_requested_; })) {
        break;
      }
      lock.unlock();
      sample(wall_seconds());
      lock.lock();
    }
  });
}

void TimeSeries::stop_wall_sampler() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!worker_.joinable()) return;
    stop_requested_ = true;
    thread_cv_.notify_all();
  }
  worker_.join();
  sample(wall_seconds());  // closing sample so short runs still get curves
}

}  // namespace gc::obs
