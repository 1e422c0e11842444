// PAPI-style region energy monitor over the simulated RAPL counters.
//
// The paper instruments compression and I/O phases with PAPI reads of the
// powercap counters (Sec. IV-B/IV-C, Fig. 4). This monitor plays that role:
// benches record each *really measured* kernel runtime here; the monitor
// dilates it onto the target platform (speed factor), applies the node
// power model at the phase's utilization, and integrates energy through
// RaplSimulator with discrete 10 ms sampling — E = Σ P(tᵢ)Δt.
#pragma once

#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "energy/cpu_model.h"
#include "energy/rapl_sim.h"

namespace eblcio {

struct EnergyReading {
  double seconds = 0.0;  // platform (simulated) time
  double joules = 0.0;
  int samples = 0;       // discrete RAPL samples taken
  double avg_watts() const { return seconds > 0 ? joules / seconds : 0.0; }
};

// A labeled phase inside a measured region ("compress", "decompress",
// "write"), so benches can report stacked energy like Figs. 7/10/12.
struct PhaseEnergy {
  std::string label;
  EnergyReading reading;
};

// One codec lane's host interval, in seconds on a clock shared by every
// lane of one pipeline call.
struct LaneSpan {
  double start_s = 0.0;
  double end_s = 0.0;
};

// Thread-safe: concurrent record_* calls (e.g. the streaming pipeline's
// compress tasks and its PFS writer sharing a monitor)
// serialize on an internal mutex, so per-phase joules accumulate exactly.
class PowercapMonitor {
 public:
  explicit PowercapMonitor(const CpuModel& cpu) : cpu_(&cpu) {}

  const CpuModel& cpu() const { return *cpu_; }

  // Records a compute phase measured on the calibration host: wall time is
  // divided by the platform speed factor and charged at `threads` busy
  // cores. Returns this phase's reading.
  EnergyReading record_compute(const std::string& label, double host_seconds,
                               int threads);

  // Records the compute phases of one call's concurrent codec lanes, each
  // running `threads` cores. The lanes share one node, which is charged
  // once: over every host interval where k of the spans overlap, the node
  // draws node_power_w(k * threads), split equally among those k lanes and
  // dilated like record_compute. Each span is logged as its own `label`
  // phase, in span order; a span that overlaps no other is charged exactly
  // record_compute(label, end_s - start_s, threads).
  std::vector<EnergyReading> record_lanes(const std::string& label,
                                          std::span<const LaneSpan> spans,
                                          int threads);

  // Records an I/O wait phase of `seconds` *platform* time (I/O time comes
  // from the PFS simulator, already in platform time).
  EnergyReading record_io(const std::string& label, double seconds);

  // Snapshot of the recorded phases. (Returned by value so callers never
  // iterate a vector another thread is appending to.)
  std::vector<PhaseEnergy> phases() const;
  EnergyReading total() const;
  void reset();

 private:
  EnergyReading integrate(const std::string& label, double seconds,
                          double watts);

  const CpuModel* cpu_;
  mutable std::mutex mu_;
  RaplSimulator rapl_;
  std::vector<PhaseEnergy> phases_;
};

}  // namespace eblcio
