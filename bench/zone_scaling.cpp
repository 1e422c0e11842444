// Zone-sharded partial reads at serving scale: how decode latency, bytes
// fetched, and energy per query scale with the zone count, the number of
// contending PFS clients, and the query size.
//
// Each grid cell builds its own PFS world: the field streams out through
// the zoned chunk API (run_streamed_compress_write, stream.slabs = zones),
// a reader fleet of clients-1 extra scopes registers to contend with the
// query, and a centered dim-0 slab query of the requested fraction runs
// through the partial-region pipeline (run_streamed_read_region). Every
// cell also decodes the identical query through the serial reference
// (read_region_reference) and requires bit parity ("bitpar" column;
// nonzero exit on any mismatch). "rebuilt" counts the elements the
// windowed zone decodes reconstructed: whole covering zones for codecs
// that decode in full, each zone's lower cone of the box for SZ2.
//
// The dim-0 slab query is the worst case for fetch amplification: it
// touches every element of the rows it covers, so amplification is purely
// the zone quantization ("amp" = fetched container fraction / queried row
// fraction; 1.0 means the index fetched exactly the query's share).
//
// Grid flags as in every grid bench: --scale/--reps/--seed/--serial/
// --verify/--jobs; plus --eb, --codec, --dataset, --json. The decode
// latency and energy columns ride on host-measured kernel timings and are
// excluded from the --verify row comparison, like wall-clock columns
// elsewhere.
//
// After the grid, a kernel section times the full-field zone decode —
// parallel (zone_decode) vs serial (zone_decode_serial) on the same 8
// zone blobs, plus the memcpy calibration row — and writes everything to
// BENCH_zones.json. CI's Release leg gates zone_decode throughput,
// normalized in-run by zone_decode_serial, against
// bench/baselines/BENCH_zones.json (scripts/check_perf_baseline.py).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "io/io_tool.h"
#include "parallel/executor.h"

using namespace eblcio;

namespace {

struct QuerySpec {
  std::string label;
  int denom = 1;  // query covers ceil(d0 / denom) leading rows
};

volatile std::size_t g_sink = 0;

struct KernelResult {
  std::string name;
  double seconds = 0.0;
  double bytes = 0.0;
  double items = 0.0;
  double mbps() const { return bytes > 0 ? bytes / seconds / 1e6 : 0.0; }
  double msyms() const { return items > 0 ? items / seconds / 1e6 : 0.0; }
};

template <typename F>
KernelResult run_kernel(const std::string& name, int reps, double bytes,
                        double items, F&& fn) {
  KernelResult r;
  r.name = name;
  r.bytes = bytes;
  r.items = items;
  r.seconds = 1e30;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    g_sink = g_sink + fn();
    r.seconds = std::min(r.seconds, t.elapsed_s());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  const double eb = args.get_double("eb", 1e-3);
  const std::string codec = args.get("codec", "SZ3");
  const std::string dataset = args.get("dataset", "NYX");
  const std::string json_path = args.get("json", "BENCH_zones.json");
  args.reject_unknown();
  bench::print_bench_header(
      "Zones", "Partial-region decode vs zones x clients x query size", env);

  const Field& field = bench::bench_dataset(dataset, env);
  const auto dims = field.shape().dims_vector();
  const std::size_t d0 = dims[0];

  struct Cell {
    int zones = 0;
    int clients = 0;
    QuerySpec query;
  };
  const std::vector<QuerySpec> queries{{"1/8", 8}, {"1/2", 2}, {"full", 1}};
  std::vector<Cell> cells;
  for (int zones : {2, 4, 8})
    for (int clients : {1, 4})
      for (const QuerySpec& q : queries) cells.push_back({zones, clients, q});
  const std::size_t per_group = queries.size();

  // The query box: a centered dim-0 slab of 1/denom of the rows, full
  // extent in the trailing dims (deliberately not zone-aligned, so most
  // queries straddle zone boundaries).
  const auto query_region = [&](const QuerySpec& q) {
    Region region;
    const std::size_t rows = std::max<std::size_t>(1, (d0 + q.denom - 1) /
                                                          q.denom);
    region.start.assign(dims.size(), 0);
    region.shape = dims;
    region.start[0] = (d0 - rows) / 2;
    region.shape[0] = rows;
    return region;
  };

  struct CellOut {
    std::size_t bytes_fetched = 0;
    double fetch_fraction = 0.0;  // of the whole container
    double amplification = 0.0;   // fetch fraction / queried row fraction
    int zones_decoded = 0;
    std::size_t elements_reconstructed = 0;  // by the windowed zone decodes
    double stream_s = 0.0;  // streamed fetch->decode makespan
    double serial_s = 0.0;  // serial fetch-then-decode schedule
    double energy_j = 0.0;  // fetch + decode energy per query
    bool bit_parity = false;
  };
  std::atomic<bool> parity_ok{true};

  auto eval = [&](const Cell& cell, SweepCellContext&) {
    PfsSimulator pfs;
    PipelineConfig cfg;
    cfg.codec = codec;
    cfg.error_bound = eb;
    StreamConfig stream;
    stream.slabs = cell.zones;
    const auto wrec = run_streamed_compress_write(field, cfg, pfs, stream);

    // The contending fleet: clients-1 extra registered readers, so the
    // query's own scope brings the PFS's live client count to `clients`
    // and every ranged fetch is priced at that contention.
    std::optional<PfsSimulator::ReaderScope> fleet;
    if (cell.clients > 1) fleet.emplace(pfs, cell.clients - 1);

    const Region region = query_region(cell.query);
    const auto rec = run_streamed_read_region(pfs, wrec.path, region, cfg);

    CellOut out;
    out.bytes_fetched = rec.bytes_fetched;
    out.fetch_fraction = rec.fetch_fraction();
    const double row_fraction =
        static_cast<double>(region.shape[0]) / static_cast<double>(d0);
    out.amplification = out.fetch_fraction / row_fraction;
    out.zones_decoded = rec.zones_decoded;
    out.elements_reconstructed = rec.elements_reconstructed;
    out.stream_s = rec.streamed_total_s;
    out.serial_s = rec.serial_total_s;
    out.energy_j = rec.fetch_j + rec.decompress_j;

    const Field ref = read_region_reference(pfs, wrec.path, region, "HDF5");
    const auto a = rec.field.bytes();
    const auto b = ref.bytes();
    out.bit_parity =
        a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    if (!out.bit_parity) parity_ok = false;
    return out;
  };

  // Cell outputs captured for the JSON document. render runs serialized
  // (inside the sweep's streaming callback and the verify rerun), so a
  // plain map keyed by the cell coordinates is safe.
  const auto cell_key = [](const Cell& cell) {
    return "z" + std::to_string(cell.zones) + "_c" +
           std::to_string(cell.clients) + "_q" +
           std::to_string(cell.query.denom);
  };
  std::map<std::string, CellOut> outs;

  // Fragment columns resting on host-measured pipeline timings, excluded
  // from --verify (shared by render and verify_view).
  constexpr std::size_t kStreamCol = 5, kSerialCol = 6, kEnergyCol = 7;
  auto render = [&](const Cell& cell, const CellOut& out) {
    outs[cell_key(cell)] = out;
    std::vector<std::string> row(9);
    row[0] = fmt_double(static_cast<double>(out.bytes_fetched) / 1e6, 3);
    row[1] = fmt_double(out.fetch_fraction * 100.0, 1) + "%";
    row[2] = fmt_double(out.amplification, 2) + "x";
    row[3] = std::to_string(out.zones_decoded);
    row[4] = std::to_string(out.elements_reconstructed);
    row[kStreamCol] = fmt_double(out.stream_s, 4);
    row[kSerialCol] = fmt_double(out.serial_s, 4);
    row[kEnergyCol] = fmt_double(out.energy_j, 3);
    row[8] = out.bit_parity ? "ok" : "FAIL";
    return row;
  };
  auto verify_view = [](const Cell&, const std::vector<std::string>& row) {
    std::vector<std::string> deterministic;
    for (std::size_t i = 0; i < row.size(); ++i)
      if (i != kStreamCol && i != kSerialCol && i != kEnergyCol)
        deterministic.push_back(row[i]);
    return bench::detail::join_fragment(deterministic);
  };

  std::optional<bench::StreamedTable> table;
  bench::JsonObject json_cells;
  const auto summary = bench::run_grid_bench(
      cells, env, eval, render,
      [&](const Cell& cell, std::size_t index,
          const std::vector<std::string>& fragment) {
        if (index == 0)
          table.emplace(std::vector<std::string>{
              "zones", "clients", "query", "fetch (MB)", "fetch frac",
              "amp", "decoded", "rebuilt", "strm (s)", "serial (s)",
              "energy (J)", "bitpar"});
        else if (index % per_group == 0)
          table->add_rule();
        std::vector<std::string> row = {std::to_string(cell.zones),
                                        std::to_string(cell.clients),
                                        cell.query.label};
        row.insert(row.end(), fragment.begin(), fragment.end());
        table->add_row(row);
      },
      verify_view);
  if (table) table->finish();
  bench::print_grid_summary(summary);

  // Emit the captured cells in grid order.
  for (const Cell& cell : cells) {
    const auto it = outs.find(cell_key(cell));
    if (it == outs.end()) continue;
    const CellOut& out = it->second;
    bench::JsonObject c;
    c.set("zones", static_cast<std::uint64_t>(cell.zones));
    c.set("clients", static_cast<std::uint64_t>(cell.clients));
    c.set("query", cell.query.label);
    c.set("bytes_fetched", static_cast<std::uint64_t>(out.bytes_fetched));
    c.set("fetch_fraction", out.fetch_fraction);
    c.set("amplification", out.amplification);
    c.set("zones_decoded", static_cast<std::uint64_t>(out.zones_decoded));
    c.set("elements_reconstructed",
          static_cast<std::uint64_t>(out.elements_reconstructed));
    c.set("decode_stream_s", out.stream_s);
    c.set("decode_serial_s", out.serial_s);
    c.set("energy_j", out.energy_j);
    json_cells.set(cell_key(cell), c);
  }

  // --- kernel section: full-field zone decode, parallel vs serial ----------
  // The 8 zone blobs an 8-slab streamed write appends: each slab of
  // split_slabs compressed at the whole field's absolute bound. The decode
  // runs each blob through decompress_any and merges the zones, as
  // parallel_for tasks (zone_decode) or in a plain loop
  // (zone_decode_serial).
  const int reps = std::max(1, env.reps);
  CompressOptions opt;
  opt.error_bound = eb;
  CompressOptions zone_opt;
  zone_opt.mode = BoundMode::kAbsolute;
  zone_opt.error_bound = absolute_bound_for(field, opt);
  std::vector<Bytes> zone_blobs;
  for (const Field& slab : split_slabs(field, 8))
    zone_blobs.push_back(compressor(codec).compress(slab, zone_opt));
  const auto decode_zones = [&](bool parallel) {
    std::vector<Field> zones(zone_blobs.size());
    const auto decode = [&](std::size_t i) {
      zones[i] = decompress_any(zone_blobs[i], 1);
    };
    if (parallel)
      parallel_for(zones.size(), static_cast<int>(zones.size()), decode);
    else
      for (std::size_t i = 0; i < zones.size(); ++i) decode(i);
    return merge_slabs(zones, field.shape().dims_vector(), field.name());
  };
  const double elems = static_cast<double>(field.shape().num_elements());
  const auto field_bytes = field.bytes();

  std::vector<KernelResult> kernels;
  {
    Bytes dst(field_bytes.size());
    kernels.push_back(run_kernel(
        "memcpy", reps, static_cast<double>(field_bytes.size()), 0, [&] {
          std::memcpy(dst.data(), field_bytes.data(), field_bytes.size());
          return static_cast<std::size_t>(dst[0]);
        }));
  }
  kernels.push_back(run_kernel("zone_decode", reps, 0, elems, [&] {
    return decode_zones(true).size_bytes();
  }));
  kernels.push_back(run_kernel("zone_decode_serial", reps, 0, elems, [&] {
    return decode_zones(false).size_bytes();
  }));
  const double speedup = kernels[2].seconds / kernels[1].seconds;

  // Round-trip sanity: never publish numbers for a broken decode path.
  {
    const Field par = decode_zones(true);
    const Field ser = decode_zones(false);
    const auto a = par.bytes();
    const auto b = ser.bytes();
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      std::fprintf(stderr,
                   "FATAL: parallel zone decode diverged from serial\n");
      return 1;
    }
  }

  std::printf("\nfull-field zone decode (8 zones, best of %d):\n", reps);
  bench::StreamedTable ktable({"kernel", "best (ms)", "Melem/s"});
  for (const auto& k : kernels)
    ktable.add_row({k.name, fmt_double(k.seconds * 1e3, 3),
                    k.items > 0 ? fmt_double(k.msyms(), 1) : "-"});
  ktable.finish();
  std::printf("parallel speedup over serial: %sx\n",
              fmt_double(speedup, 2).c_str());

  bench::JsonObject jkernels;
  for (const auto& k : kernels) {
    bench::JsonObject jk;
    jk.set("seconds", k.seconds);
    if (k.bytes > 0) jk.set("mbps", k.mbps());
    if (k.items > 0) jk.set("msyms_per_s", k.msyms());
    jkernels.set(k.name, jk);
  }
  bench::JsonObject doc;
  doc.set("schema", std::uint64_t{1});
  doc.set("bench", std::string("zone_scaling"));
  doc.set("reps", static_cast<std::uint64_t>(reps));
  doc.set("dataset", dataset);
  doc.set("codec", codec);
  doc.set("parallel_speedup", speedup);
  doc.set("cells", json_cells);
  doc.set("kernels", jkernels);
  if (!json_path.empty()) {
    if (!bench::write_json_file(json_path, doc)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!parity_ok)
    std::printf("\nBIT-PARITY FAILURE: a region decode did not match its "
                "serial reference.\n");
  std::printf(
      "\nReading: bytes fetched track the query's row fraction, not the\n"
      "field size — the amplification column is the zone-quantization\n"
      "overhead (worst at many zones per queried row, 1.0x when zone\n"
      "boundaries align with the query). More contending clients stretch\n"
      "fetch time but leave bytes and decode energy untouched; more zones\n"
      "cut both the amplification and the streamed makespan, which is the\n"
      "serving-scale argument for zone-sharding checkpoints.\n");
  return !parity_ok ? 1 : summary.exit_code();
}
