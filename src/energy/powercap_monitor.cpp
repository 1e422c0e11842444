#include "energy/powercap_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace eblcio {

namespace {
constexpr double kSampleDtS = 0.01;  // powercap sampling interval
}  // namespace

EnergyReading PowercapMonitor::integrate(const std::string& label,
                                         double seconds, double watts) {
  // Discrete sampling like the real powercap reader: whole sample steps,
  // plus the final partial step. The slight quantization is intentional —
  // it is what the instrument in the paper sees.
  EnergyReading reading;
  std::lock_guard<std::mutex> lock(mu_);
  const double before = rapl_.total_joules();
  double remaining = seconds;
  int samples = 0;
  while (remaining > 0.0) {
    const double dt = std::min(remaining, kSampleDtS);
    rapl_.advance(dt, watts);
    remaining -= dt;
    ++samples;
  }
  reading.seconds = seconds;
  reading.joules = rapl_.total_joules() - before;
  reading.samples = samples;
  phases_.push_back({label, reading});
  return reading;
}

EnergyReading PowercapMonitor::record_compute(const std::string& label,
                                              double host_seconds,
                                              int threads) {
  EBLCIO_CHECK_ARG(host_seconds >= 0.0, "negative runtime");
  const double platform_seconds = host_seconds / cpu_->speed_factor;
  const double watts = cpu_->node_power_w(std::max(threads, 1));
  return integrate(label, platform_seconds, watts);
}

std::vector<EnergyReading> PowercapMonitor::record_lanes(
    const std::string& label, std::span<const LaneSpan> spans, int threads) {
  const int per_lane = std::max(threads, 1);
  std::vector<double> cuts;
  cuts.reserve(spans.size() * 2);
  for (const LaneSpan& s : spans) {
    EBLCIO_CHECK_ARG(s.end_s >= s.start_s, "lane span ends before it starts");
    cuts.push_back(s.start_s);
    cuts.push_back(s.end_s);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Sweep the elementary intervals between span endpoints: a lane live
  // over [a, b) alongside k-1 others draws node_power(k * threads) / k.
  // lanes_seen records the one k a span saw throughout (-1 once it saw
  // two), so an unshared span keeps record_compute's exact wattage.
  std::vector<double> watt_seconds(spans.size(), 0.0);
  std::vector<int> lanes_seen(spans.size(), 0);
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double a = cuts[c], b = cuts[c + 1];
    int k = 0;
    for (const LaneSpan& s : spans) k += s.start_s <= a && b <= s.end_s;
    if (k == 0) continue;
    const double share = cpu_->node_power_w(k * per_lane) / k;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      if (!(spans[j].start_s <= a && b <= spans[j].end_s)) continue;
      watt_seconds[j] += share * (b - a);
      lanes_seen[j] = lanes_seen[j] == 0 || lanes_seen[j] == k ? k : -1;
    }
  }

  std::vector<EnergyReading> out;
  out.reserve(spans.size());
  for (std::size_t j = 0; j < spans.size(); ++j) {
    const double host = spans[j].end_s - spans[j].start_s;
    const int k = lanes_seen[j];
    const double watts = k > 0    ? cpu_->node_power_w(k * per_lane) / k
                         : k < 0 ? watt_seconds[j] / host
                                 : cpu_->node_power_w(per_lane);
    out.push_back(integrate(label, host / cpu_->speed_factor, watts));
  }
  return out;
}

EnergyReading PowercapMonitor::record_io(const std::string& label,
                                         double seconds) {
  return integrate(label, seconds, cpu_->io_power_w());
}

std::vector<PhaseEnergy> PowercapMonitor::phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_;
}

EnergyReading PowercapMonitor::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  EnergyReading t;
  for (const auto& p : phases_) {
    t.seconds += p.reading.seconds;
    t.joules += p.reading.joules;
    t.samples += p.reading.samples;
  }
  return t;
}

void PowercapMonitor::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
  rapl_ = RaplSimulator();
}

}  // namespace eblcio
