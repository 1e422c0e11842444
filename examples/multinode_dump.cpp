// multinode_dump — the Sec. IV-E experiment as a runnable program: R ranks
// (one executor task each) compress their copy of a NYX field and write
// it to the shared Lustre-class PFS; the fleet's wall time is its slowest
// rank's compute + write, and a node-level ledger prices the energy.
// Compare against the same fleet writing uncompressed data.
//
//   ./examples/multinode_dump [--ranks=64] [--codec=SZ3] [--eb=1e-3]
//
// With --parallel-sweep the program runs the node×rank grid instead:
// every (nodes, ranks-per-node) world is one sweep cell, the worlds batch
// concurrently on sweep threads (core/sweep.h), rows stream as they
// complete in deterministic order, and all worlds share one PFS whose
// contention model is fed the true number of simultaneously-writing
// clients through the writer registry (overlapping worlds contend, as the
// same fleets would on a real Lustre).
//
//   ./examples/multinode_dump --parallel-sweep [--nodes=1,2,4]
//       [--rpn=2,4,8,16] [--codec=SZ3] [--eb=1e-3] [--serial]
//       [--max-worlds=4]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/cli.h"
#include "common/format.h"
#include "common/timer.h"
#include "compressors/compressor.h"
#include "core/sweep.h"
#include "data/dataset.h"
#include "energy/cpu_model.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"

using namespace eblcio;

namespace {

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  return out;
}

struct WorldResult {
  double comp_j = 0.0;
  double write_j = 0.0;
  double orig_j = 0.0;
  double wall_s = 0.0;
  std::size_t blob_bytes = 0;
};

// One world: `ranks` ranks really compress `field` (one executor task per
// rank) and write their blobs to `pfs`, contending with every other writer
// registered on it. The fleet completes at its slowest rank. Energy uses
// `nodes` explicitly (the node×rank grid fixes both axes).
WorldResult run_world(const Field& field, const std::string& codec, double eb,
                      const CpuModel& cpu, int nodes, int ranks,
                      PfsSimulator& pfs, const std::string& dump_prefix) {
  PfsSimulator::WriterScope fleet(pfs, ranks);
  WorldResult result;
  std::vector<double> comp_s(ranks), write_s(ranks);

  parallel_for(static_cast<std::size_t>(ranks), 0, [&](std::size_t rank) {
    CompressOptions opt;
    opt.error_bound = eb;
    WallTimer timer;
    const Bytes blob = compressor(codec).compress(field, opt);
    comp_s[rank] = timer.elapsed_s() / cpu.speed_factor;

    // The PFS itself is thread-safe; contention is the larger of this
    // world's fleet and the writers registered across batched worlds.
    const int clients = std::max(ranks, pfs.concurrent_writers());
    const IoCost cost = io_tool("HDF5").write_blob(
        pfs, dump_prefix + "/rank" + std::to_string(rank), field.name(),
        blob, clients);
    write_s[rank] = cost.total_seconds();
    if (rank == 0) result.blob_bytes = blob.size();
  });

  double max_comp = 0.0, max_write = 0.0;
  for (int rank = 0; rank < ranks; ++rank) {
    max_comp = std::max(max_comp, comp_s[rank]);
    max_write = std::max(max_write, write_s[rank]);
    result.wall_s = std::max(result.wall_s, comp_s[rank] + write_s[rank]);
  }
  const int clients = std::max(ranks, pfs.concurrent_writers());
  const int cores_per_node = (ranks + nodes - 1) / nodes;
  result.comp_j = nodes * cpu.node_power_w(cores_per_node) * max_comp;
  result.write_j = nodes * cpu.io_power_w() * max_write;
  result.orig_j = nodes * cpu.io_power_w() *
                  pfs.transfer_seconds(field.size_bytes(), clients);
  return result;
}

int run_grid_sweep(const CliArgs& args, const Field& field,
                   const std::string& codec, double eb, const CpuModel& cpu) {
  const std::vector<int> node_counts =
      parse_int_list(args.get("nodes", "1,2,4"));
  const std::vector<int> rpn_counts =
      parse_int_list(args.get("rpn", "2,4,8,16"));
  const bool serial = args.get_bool("serial", false);
  const int max_worlds = args.get_int("max-worlds", 4);
  args.reject_unknown();

  struct GridCell {
    int nodes = 0;
    int rpn = 0;
  };
  std::vector<GridCell> cells;
  for (int nodes : node_counts)
    for (int rpn : rpn_counts) cells.push_back({nodes, rpn});

  std::printf("node×rank sweep: %zu worlds (%s), %s of NYX per rank, %s\n\n",
              cells.size(), serial ? "serial" : "batched on sweep threads",
              human_bytes(field.size_bytes()).c_str(), cpu.name.c_str());
  std::printf("%6s %5s %6s | %12s %12s %12s %10s\n", "nodes", "rpn", "ranks",
              "comp (J)", "write (J)", "orig w (J)", "verdict");

  PfsSimulator pfs;  // one PFS shared by every world of the sweep
  SweepOptions sweep;
  sweep.parallel = !serial;
  sweep.max_tasks = max_worlds;

  using Cell = SweepCell<GridCell, WorldResult>;
  const auto report = sweep_grid(
      std::move(cells),
      [&](const GridCell& cell, SweepCellContext& ctx) {
        return run_world(field, codec, eb, cpu, cell.nodes,
                         cell.nodes * cell.rpn, pfs,
                         "/dump/world" + std::to_string(ctx.index()));
      },
      sweep, [](const Cell& cell) {
        // Streamed, in deterministic domain order, as worlds complete.
        if (!cell.result) return;
        const WorldResult& r = *cell.result;
        std::printf("%6d %5d %6d | %12.2f %12.2f %12.2f %10s\n",
                    cell.cell.nodes, cell.cell.rpn,
                    cell.cell.nodes * cell.cell.rpn, r.comp_j, r.write_j,
                    r.orig_j,
                    r.comp_j + r.write_j < r.orig_j ? "compress" : "raw");
        std::fflush(stdout);
      });
  report.rethrow_first_error();

  std::printf(
      "\nsweep wall %.2f s host (summed world time %.2f s); PFS saw a peak\n"
      "of %d simultaneously-registered writers — the true concurrent-client\n"
      "count fed to the contention model while worlds overlapped.\n",
      report.stats.wall_s, report.stats.cell_seconds,
      pfs.peak_concurrent_writers());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string codec = args.get("codec", "SZ3");
  const double eb = args.get_double("eb", 1e-3);
  const CpuModel& cpu = cpu_model("8160");
  const Field field = generate_dataset_dims("NYX", {48, 48, 48}, 7);

  if (args.get_bool("parallel-sweep", false))
    return run_grid_sweep(args, field, codec, eb, cpu);

  const int ranks = args.get_int("ranks", 64);
  args.reject_unknown();
  std::printf("multi-node dump: %d ranks x %s of NYX, %s @ eb=%s, %s\n\n",
              ranks, human_bytes(field.size_bytes()).c_str(), codec.c_str(),
              fmt_error_bound(eb).c_str(), cpu.name.c_str());

  PfsSimulator pfs;
  const int nodes = (ranks + cpu.cores - 1) / cpu.cores;
  const WorldResult r =
      run_world(field, codec, eb, cpu, nodes, ranks, pfs, "/dump");

  std::printf("per-rank blob: %s (ratio %.1fx)\n",
              human_bytes(r.blob_bytes).c_str(),
              compression_ratio(field.size_bytes(), r.blob_bytes));
  std::printf("fleet wall time (simulated): %s\n",
              fmt_seconds(r.wall_s).c_str());
  std::printf(
      "energy: compression %.2f J + compressed writes %.2f J = %.2f J\n",
      r.comp_j, r.write_j, r.comp_j + r.write_j);
  std::printf("        uncompressed writes %.2f J\n", r.orig_j);
  std::printf("=> %s\n",
              r.comp_j + r.write_j < r.orig_j
                  ? "compress-then-write wins (the paper's ~25% multi-node "
                    "saving)"
                  : "uncompressed wins at this rank count / data size");

  // Spot-check one rank's dump end to end.
  const Bytes back =
      io_tool("HDF5").read_blob(pfs, "/dump/rank0", field.name());
  const Field restored = decompress_any(back);
  std::printf("rank0 dump verified within bound: %s\n",
              check_value_range_bound(field, restored, eb) ? "yes" : "NO");
  return 0;
}
