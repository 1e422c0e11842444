// compressor_tuner — interactive use of the compression advisor (the
// paper's Sec. VII "actionable takeaways" as an API): trial the EBLC suite
// on a sample of your data set under a quality floor and rank the
// candidates for each optimization objective.
//
// The codec×bound trials execute as a grid sweep on sweep threads
// (core/sweep.h); completed trials stream as progress lines in
// deterministic domain order while the grid is still running.
//
//   ./examples/compressor_tuner [--dataset=NYX] [--psnr=60]
//                               [--parallel-sweep=1] [--reps=1]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/format.h"
#include "common/table.h"
#include "core/decision.h"
#include "data/dataset.h"

using namespace eblcio;

namespace {

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kMinEnergy: return "minimize energy";
    case Objective::kMaxRatio: return "maximize ratio";
    case Objective::kBalanced: return "ratio per joule";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string dataset = args.get("dataset", "NYX");
  const double psnr_floor = args.get_double("psnr", 60.0);
  const bool parallel = args.get_bool("parallel-sweep", true);
  const int reps = args.get_int("reps", 1);
  args.reject_unknown();

  const DatasetSpec& spec = dataset_spec(dataset);
  const Field field = generate_dataset_dims(
      dataset, scaled_dims(spec, 1.0 / spec.default_shrink), 11);
  std::printf("tuning for %s (%s, %s), PSNR floor %.0f dB\n\n",
              spec.name.c_str(), fmt_dims(field.shape().dims_vector()).c_str(),
              human_bytes(field.size_bytes()).c_str(), psnr_floor);

  for (Objective obj : {Objective::kMinEnergy, Objective::kMaxRatio,
                        Objective::kBalanced}) {
    AdvisorConstraints cons;
    cons.psnr_min_db = psnr_floor;
    cons.objective = obj;
    cons.parallel = parallel;
    if (reps > 1) cons.repeat = repeat_protocol(reps);
    std::printf("--- objective: %s (%s sweep) ---\n", objective_name(obj),
                parallel ? "parallel" : "serial");
    const AdvisorReport report = advise_compression(
        field, cons,
        [](const AdvisorCandidate& c, std::size_t done, std::size_t total) {
          std::printf("  [%2zu/%zu] %-4s @ %-6s ratio %6.1fx  PSNR %6.1f dB\n",
                      done, total, c.codec.c_str(),
                      fmt_error_bound(c.error_bound).c_str(), c.ratio,
                      c.psnr_db);
          std::fflush(stdout);
        });

    TextTable t({"rank", "codec", "bound", "ratio", "PSNR (dB)",
                 "sample energy (J)", "feasible"});
    int rank = 1;
    for (const AdvisorCandidate& c : report.candidates) {
      if (rank > 6) break;  // top six
      t.add_row({std::to_string(rank++), c.codec,
                 fmt_error_bound(c.error_bound), fmt_double(c.ratio, 1),
                 fmt_double(c.psnr_db, 1), fmt_double(c.compress_j, 4),
                 c.feasible ? "yes" : "no"});
    }
    t.print(std::cout);
    if (!report.recommendation.codec.empty()) {
      std::printf("recommendation: %s @ %s\n\n",
                  report.recommendation.codec.c_str(),
                  fmt_error_bound(report.recommendation.error_bound).c_str());
    } else {
      std::printf("recommendation: none feasible under the floor\n\n");
    }
  }
  return 0;
}
