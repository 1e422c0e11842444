// Extension — the read path. Sec. VI-A notes the benefit is "doubly
// effective, as pulling compressed data out of storage for analysis will
// have the same benefits of reduced I/O time." This bench quantifies it:
// energy to read back + decompress each data set versus reading the
// uncompressed original, per codec at REL 1e-3 (HDF5, MAX 9480) — and, new
// with the chunked-dataset API, the streamed read pipeline's makespan
// (PFS fetch of slab i overlapping decompression of slab i-1) against the
// serial fetch-then-decompress schedule for the same container.
//
// The dataset×codec grid runs on the sweep engine (run_grid_bench):
// --serial/--verify/--reps/--jobs as in every grid bench. Every cell also
// proves the streamed round trip (write via the chunk API, read via the
// pipeline) bit-for-bit identical to the serial reference in all three
// IoTool containers ("bitpar" column; nonzero exit on any mismatch). The
// two makespan columns are host-measured pipeline schedules and are
// excluded from the --verify row comparison, like wall-clock columns
// elsewhere.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "compressors/compressor.h"
#include "energy/powercap_monitor.h"
#include "io/io_tool.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  const double eb = args.get_double("eb", 1e-3);
  args.reject_unknown();
  bench::print_bench_header(
      "Extension", "Read-back + decompress energy vs uncompressed read",
      env);

  const CpuModel& cpu = cpu_model("9480");

  struct Cell {
    std::string dataset;
    std::string codec;
  };
  const std::size_t per_dataset = eblc_names().size();
  std::vector<Cell> cells;
  for (const std::string& dataset : bench::paper_datasets()) {
    bench::bench_dataset(dataset, env);  // generate before the cells race
    for (const std::string& codec : eblc_names())
      cells.push_back({dataset, codec});
  }

  struct CellOut {
    bool supported = false;
    double read_j = 0.0;      // compressed-container read I/O
    double decomp_j = 0.0;    // decompression energy (memoized kernel)
    double orig_j = 0.0;      // uncompressed-container read I/O
    double stream_s = 0.0;    // streamed fetch→decompress makespan
    double serial_s = 0.0;    // serial fetch-then-decompress makespan
    bool bit_parity = false;  // streamed field == serial reference
  };
  std::atomic<bool> parity_ok{true};

  auto eval = [&](const Cell& cell, SweepCellContext& ctx) {
    const Field& f = bench::bench_dataset(cell.dataset, env);
    CellOut out;
    CompressOptions opt;
    opt.error_bound = eb;
    if (!compressor(cell.codec).supports(f, opt)) return out;
    out.supported = true;

    IoTool& tool = io_tool("HDF5");
    PfsSimulator pfs;
    PipelineConfig cfg;
    cfg.codec = cell.codec;
    cfg.error_bound = eb;
    cfg.cpu = cpu.name;

    // Serial reference: whole-blob container, priced with the symmetric
    // read model (open once + per-stripe RPCs + transfer).
    tool.write_field(pfs, "/r/orig", f);
    const Bytes blob = compressor(cell.codec).compress(f, opt);
    tool.write_blob(pfs, "/r/" + cell.codec, cell.dataset, blob);
    PowercapMonitor mon(cpu);
    out.read_j =
        mon.record_io("read", pfs.read_cost("/r/" + cell.codec).seconds)
            .joules;
    out.orig_j =
        mon.record_io("read-orig", pfs.read_cost("/r/orig").seconds).joules;
    const auto rec = bench::measure_compression(f, cfg, env, &ctx);
    out.decomp_j = rec.decompress_j;

    // Streamed cells: dump through the chunk API, restart through the
    // fetch→decompress pipeline, against the serial schedule — in every
    // container. bitpar ANDs the three round trips; the reported
    // makespans are the HDF5 pipeline's.
    out.bit_parity = true;
    for (const char* container : {"HDF5", "NetCDF", "ADIOS"}) {
      PipelineConfig scfg = cfg;
      scfg.io_library = container;
      const auto wrec = run_streamed_compress_write(f, scfg, pfs);
      const auto rrec = run_streamed_read(pfs, wrec.path, scfg);
      if (scfg.io_library == "HDF5") {
        out.stream_s = rrec.streamed_total_s;
        out.serial_s = rrec.serial_total_s;
      }
      const Field serial_field = read_chunked_field(pfs, wrec.path, container);
      const auto a = rrec.field.bytes();
      const auto b = serial_field.bytes();
      if (a.size() != b.size() ||
          !std::equal(a.begin(), a.end(), b.begin()))
        out.bit_parity = false;
    }
    if (!out.bit_parity) parity_ok = false;
    return out;
  };

  // Fragment column indices of the two pipeline-makespan cells, shared by
  // render and verify_view so the exclusion can't drift out of sync.
  constexpr std::size_t kStreamCol = 5, kSerialCol = 6;
  auto render = [](const Cell&, const CellOut& out) {
    if (!out.supported)
      return std::vector<std::string>(8, "n/a");
    const double total = out.read_j + out.decomp_j;
    std::vector<std::string> row(8);
    row[0] = fmt_double(out.read_j, 3);
    row[1] = fmt_double(out.decomp_j, 3);
    row[2] = fmt_double(total, 3);
    row[3] = fmt_double(out.orig_j, 3);
    row[4] = fmt_double(out.orig_j / total, 2) + "x";
    row[kStreamCol] = fmt_double(out.stream_s, 4);
    row[kSerialCol] = fmt_double(out.serial_s, 4);
    row[7] = out.bit_parity ? "ok" : "FAIL";
    return row;
  };
  // The makespan columns rest on live host timings of the pipeline run;
  // everything else must match the serial rerun exactly.
  auto verify_view = [](const Cell&, const std::vector<std::string>& row) {
    std::vector<std::string> deterministic;
    for (std::size_t i = 0; i < row.size(); ++i)
      if (i != kStreamCol && i != kSerialCol) deterministic.push_back(row[i]);
    return bench::detail::join_fragment(deterministic);
  };

  std::optional<bench::StreamedTable> table;
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell& cell, std::size_t index,
          const std::vector<std::string>& fragment) {
        if (index == 0)
          table.emplace(std::vector<std::string>{
              "Dataset", "Codec", "read comp (J)", "decomp (J)", "total (J)",
              "read orig (J)", "reduction", "strm read (s)", "serial (s)",
              "bitpar"});
        else if (index % per_dataset == 0)
          table->add_rule();
        std::vector<std::string> row = {cell.dataset, cell.codec};
        row.insert(row.end(), fragment.begin(), fragment.end());
        table->add_row(row);
      },
      verify_view);
  if (table) table->finish();
  bench::print_grid_summary(summary);

  if (!parity_ok)
    std::printf("\nBIT-PARITY FAILURE: a streamed read did not match its "
                "serial reference.\n");
  std::printf(
      "\nReading: the raw read-I/O energy shrinks by the compression\n"
      "ratio, but unlike the write path the *decompression* energy must be\n"
      "paid before analysis — so end-to-end read reductions only win when\n"
      "the data is large or the codec decodes cheaply (SZx, ZFP). The\n"
      "streamed pipeline claws part of that back: fetching slab i while\n"
      "slab i-1 decompresses hides most of the remaining read I/O time.\n");
  return !parity_ok ? 1 : summary.exit_code();
}
