// capacity_planner — the paper's Sec. VII extrapolation as a tool: given a
// yearly data volume and a compressor working point, estimate storage
// device counts, device-side write energy, and the embodied-carbon
// reduction of the storage racks (SSD: 80% of rack emissions are device-
// embodied; HDD: 41% — McAllister et al., HotCarbon'24).
//
// Before measuring anything, the planner pre-screens the full codec×bound
// grid through the gray-box ratio estimator (core/estimator, the paper's
// ref. [51] role): the grid runs as a parallel sweep on the shared
// executor and streams its rows as cells complete, in deterministic
// order. The measured working point then validates the chosen cell.
//
//   ./examples/capacity_planner [--pb-per-year=10] [--dataset=NYX]
//                               [--codec=SZ3] [--eb=1e-3]
//                               [--parallel-sweep=1]
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/format.h"
#include "common/table.h"
#include "compressors/compressor.h"
#include "core/estimator.h"
#include "data/dataset.h"
#include "io/storage_energy.h"
#include "metrics/error_stats.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double pb_per_year = args.get_double("pb-per-year", 10.0);
  const std::string dataset = args.get("dataset", "NYX");
  const std::string codec = args.get("codec", "SZ3");
  const double eb = args.get_double("eb", 1e-3);
  const bool parallel = args.get_bool("parallel-sweep", true);
  args.reject_unknown();

  const Field sample = generate_dataset_dims(
      dataset, scaled_dims(dataset_spec(dataset),
                           1.0 / dataset_spec(dataset).default_shrink),
      3);

  // Gray-box pre-screen: predicted ratio for every (codec, bound) cell,
  // streamed as the sweep completes cells — no compression runs yet.
  const std::vector<std::string> screen_codecs = {"SZ2", "SZ3", "ZFP", "QoZ",
                                                  "SZx"};
  const std::vector<double> screen_bounds = {1e-2, 1e-3, 1e-4, 1e-5};
  std::printf("pre-screen (%zu cells, estimator only, %s sweep):\n",
              screen_codecs.size() * screen_bounds.size(),
              parallel ? "parallel" : "serial");
  SweepOptions sweep;
  sweep.parallel = parallel;
  const auto screen = estimate_ratio_grid(
      sample, screen_codecs, screen_bounds, 262144, sweep,
      [](const RatioGridEntry& e, std::size_t done, std::size_t total) {
        if (e.ok)
          std::printf("  [%2zu/%zu] %-4s @ %-6s -> predicted %6.1fx "
                      "(%.2f bits/value)\n",
                      done, total, e.codec.c_str(),
                      fmt_error_bound(e.eb_rel).c_str(),
                      e.estimate.predicted_ratio, e.estimate.bits_per_value);
        else
          std::printf("  [%2zu/%zu] %-4s @ %-6s -> %s\n", done, total,
                      e.codec.c_str(), fmt_error_bound(e.eb_rel).c_str(),
                      e.error.c_str());
        std::fflush(stdout);
      });

  // Measure the achievable ratio at the requested working point on the
  // representative sample of the facility's dominant data set.
  CompressOptions opt;
  opt.error_bound = eb;
  const Bytes blob = compressor(codec).compress(sample, opt);
  const double ratio = compression_ratio(sample.size_bytes(), blob.size());
  const auto st =
      compute_error_stats(sample, compressor(codec).decompress(blob, 1));
  // Working-point prediction: reuse the screened grid when the point is on
  // it (the defaults are); only off-grid points re-run the estimator.
  double predicted = 0.0;
  for (const RatioGridEntry& e : screen)
    if (e.ok && e.codec == codec && e.eb_rel == eb)
      predicted = e.estimate.predicted_ratio;
  if (predicted == 0.0)
    predicted = estimate_ratio(sample, codec, eb).predicted_ratio;

  const double bytes_year = pb_per_year * 1e15;
  std::printf(
      "\ncapacity plan: %.1f PB/year of %s-like data, %s @ eb=%s\n"
      "measured ratio %.1fx at PSNR %.1f dB (pre-screen predicted %.1fx)\n\n",
      pb_per_year, dataset.c_str(), codec.c_str(),
      fmt_error_bound(eb).c_str(), ratio, st.psnr_db, predicted);

  TextTable t({"medium", "scenario", "devices", "write energy (MJ)",
               "embodied tCO2e"});
  for (const StorageDeviceModel* model : {&ssd_model(), &hdd_model()}) {
    const StorageFootprint raw = storage_footprint(*model, bytes_year);
    const StorageFootprint comp =
        storage_footprint(*model, bytes_year / ratio);
    t.add_row({model->kind, "uncompressed", fmt_double(raw.devices, 0),
               fmt_double(raw.write_joules / 1e6, 1),
               fmt_double(raw.embodied_kgco2 / 1e3, 1)});
    t.add_row({model->kind, "EBLC " + fmt_double(ratio, 0) + "x",
               fmt_double(comp.devices, 0),
               fmt_double(comp.write_joules / 1e6, 1),
               fmt_double(comp.embodied_kgco2 / 1e3, 1)});
  }
  t.print(std::cout);

  std::printf(
      "\nrack-level embodied-emission reduction at %.0fx capacity shrink:\n"
      "  SSD racks: %.0f%%   HDD racks: %.0f%%\n"
      "(paper Sec. VII: ~70-75%% for two-orders-of-magnitude reduction,\n"
      "depending on the SSD/HDD mix)\n",
      ratio, 100.0 * rack_embodied_reduction(ssd_model(), ratio),
      100.0 * rack_embodied_reduction(hdd_model(), ratio));
  return 0;
}
