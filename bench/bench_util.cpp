#include "bench_util.h"

#include "compressors/compressor.h"
#include "energy/powercap_monitor.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <ostream>
#include <thread>

namespace eblcio::bench {

const Field& bench_dataset(const std::string& name, const BenchEnv& env) {
  static std::map<std::string, Field> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key =
      name + "@" + fmt_double(env.scale, 3) + "#" + std::to_string(env.seed);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const DatasetSpec& spec = dataset_spec(name);
  const double working_scale =
      std::min(1.0, env.scale / spec.default_shrink);
  Field f =
      generate_dataset_dims(name, scaled_dims(spec, working_scale), env.seed);
  f.set_name(spec.name);
  auto [pos, inserted] = cache.emplace(key, std::move(f));
  return pos->second;
}

const std::vector<double>& paper_bounds() {
  static const std::vector<double> kBounds = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5};
  return kBounds;
}

const std::vector<int>& paper_thread_sweep() {
  static const std::vector<int> kThreads = {1, 2, 4, 8, 16, 32, 64};
  return kThreads;
}

const std::vector<std::string>& paper_datasets() {
  static const std::vector<std::string> kSets = {"CESM", "HACC", "NYX",
                                                 "S3D"};
  return kSets;
}

void print_bench_header(const std::string& id, const std::string& title,
                        const BenchEnv& env) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("scale=%.3g reps=%d seed=%llu%s%s\n", env.scale, env.reps,
              static_cast<unsigned long long>(env.seed),
              env.serial ? " serial" : "", env.verify ? " verify" : "");
  std::printf("================================================================\n");
}

void keep_fastest_times(CompressionRecord& kept,
                        const CompressionRecord& run) {
  kept.host_compress_s = std::min(kept.host_compress_s, run.host_compress_s);
  kept.host_decompress_s =
      std::min(kept.host_decompress_s, run.host_decompress_s);
}

CompressionRecord measure_compression(const Field& field,
                                      const PipelineConfig& config,
                                      const BenchEnv& env,
                                      const SweepCellContext* ctx) {
  // Host kernel measurements are independent of the simulated platform, so
  // they are memoized per (field, codec, bound, threads): the three-CPU
  // sweeps of Figs. 7/10 derive all platform energies from one measurement,
  // exactly as the energy model intends. The per-key once-flag means
  // concurrent sweep cells sharing a key block on a single measurement
  // instead of racing to fill the slot with different host timings.
  struct HostEntry {
    std::once_flag once;
    CompressionRecord rec;
  };
  static std::map<std::string, HostEntry> cache;
  static std::mutex mu;
  const std::string key = field.name() + "|" +
                          fmt_dims(field.shape().dims_vector()) + "|" +
                          config.codec + "|" +
                          fmt_double(config.error_bound, 12) + "|" +
                          std::to_string(config.threads);
  HostEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[key];  // std::map nodes are reference-stable
  }
  std::call_once(entry->once, [&] {
    // Repeat per the paper's Sec. IV-C protocol on the host timings (the
    // run count comes from the shared protocol — the sweep's via
    // ctx.repeat when available, env.repeat_config() otherwise); keep the
    // smallest compress and the smallest decompress time, each on its own
    // (least noisy on a shared machine). Quality and size are
    // deterministic across runs.
    bool first = true;
    const auto sample = [&]() -> double {
      const CompressionRecord rec = run_compression(field, config);
      if (first) {
        entry->rec = rec;
        first = false;
      } else {
        keep_fastest_times(entry->rec, rec);
      }
      return rec.host_compress_s + rec.host_decompress_s;
    };
    if (env.reps <= 1) {
      (void)sample();
    } else if (ctx) {
      (void)ctx->repeat(sample);
    } else {
      (void)run_repeated(sample, env.repeat_config());
    }
  });
  CompressionRecord host_rec = entry->rec;

  // Re-derive platform time/energy for the requested CPU.
  const CpuModel& cpu = cpu_model(config.cpu);
  PowercapMonitor monitor(cpu);
  Compressor& comp = compressor(config.codec);
  const int decomp_threads =
      comp.caps().parallel_decompress ? config.threads : 1;
  const auto ec = monitor.record_compute("compress", host_rec.host_compress_s,
                                         config.threads);
  const auto ed = monitor.record_compute(
      "decompress", host_rec.host_decompress_s, decomp_threads);
  host_rec.compress_s = ec.seconds;
  host_rec.compress_j = ec.joules;
  host_rec.decompress_s = ed.seconds;
  host_rec.decompress_j = ed.joules;
  return host_rec;
}

// --- StreamedTable ---------------------------------------------------------

std::ostream& StreamedTable::default_stream() { return std::cout; }

StreamedTable::StreamedTable(std::vector<std::string> header,
                             std::ostream& os, std::size_t min_width)
    : header_(std::move(header)), os_(os) {
  width_.reserve(header_.size());
  for (const std::string& h : header_)
    width_.push_back(std::max(h.size(), min_width));
  emit_table_rule(os_, width_);
  emit_table_row(os_, header_, width_);
  emit_table_rule(os_, width_);
  os_.flush();
}

void StreamedTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  if (pending_rule_) {
    emit_table_rule(os_, width_);
    pending_rule_ = false;
  }
  emit_table_row(os_, cells, width_);
  os_.flush();
  ++rows_;
}

void StreamedTable::add_rule() { pending_rule_ = true; }

void StreamedTable::finish() {
  if (finished_) return;
  finished_ = true;
  pending_rule_ = false;
  emit_table_rule(os_, width_);
  os_.flush();
}

// --- Grid summary ----------------------------------------------------------

namespace detail {
std::string join_fragment(const std::vector<std::string>& fragment) {
  std::string joined;
  for (const std::string& cell : fragment) {
    joined += cell;
    joined += '\x1f';  // unit separator: cells can contain any text
  }
  return joined;
}
}  // namespace detail

void print_grid_summary(const GridRunSummary& s) {
  std::printf(
      "\nsweep: %zu cells, %s, wall %.3f s (summed cell time %.3f s)\n",
      s.stats.cells,
      s.serial ? "serial (in order on the calling thread)"
               : "batched on the shared executor",
      s.stats.wall_s, s.stats.cell_seconds);
  if (s.stats.failed) std::printf("sweep: %zu failed\n", s.stats.failed);
  if (!s.verified) return;
  if (s.verify_trivial) {
    std::printf(
        "verify: ran with --serial, so the cross-check is trivial; drop\n"
        "--serial to compare the batched sweep against a serial rerun\n");
  } else if (s.verify_ok) {
    std::printf(
        "verify: streamed sweep rows bit-identical to the serial rerun "
        "(%zu cells)\n",
        s.verify_cells);
  } else {
    std::printf(
        "verify: FAILED — %zu of %zu rendered cells DIFFER between the\n"
        "batched sweep and the serial rerun\n",
        s.verify_mismatches, s.verify_cells);
  }
}


// --- JSON emission ---------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

JsonObject& JsonObject::set(const std::string& key, double value) {
  entries_.emplace_back(key, json_number(value));
  nested_.push_back(false);
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, std::uint64_t value) {
  entries_.emplace_back(key, std::to_string(value));
  nested_.push_back(false);
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, "\"" + json_escape(value) + "\"");
  nested_.push_back(false);
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const JsonObject& value) {
  entries_.emplace_back(key, value.dump(0));
  nested_.push_back(true);
  return *this;
}

std::string JsonObject::dump(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += inner_pad + "\"" + json_escape(entries_[i].first) + "\": ";
    if (nested_[i]) {
      // Re-indent the nested object's lines under this key.
      const std::string& body = entries_[i].second;
      std::string shifted;
      for (std::size_t p = 0; p < body.size(); ++p) {
        shifted += body[p];
        if (body[p] == '\n' && p + 1 < body.size()) shifted += inner_pad;
      }
      out += shifted;
    } else {
      out += entries_[i].second;
    }
  }
  out += entries_.empty() ? "}" : "\n" + pad + "}";
  return out;
}

bool write_json_file(const std::string& path, const JsonObject& json) {
  // The host and build keys bench/e2e/compare.py matches on, so a perf gate
  // can refuse to compare runs from different machines or builds.
  JsonObject meta;
  meta.set("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
#ifdef __OPTIMIZE__
      .set("optimize", std::uint64_t{1})
#else
      .set("optimize", std::uint64_t{0})
#endif
#ifdef NDEBUG
      .set("ndebug", std::uint64_t{1})
#else
      .set("ndebug", std::uint64_t{0})
#endif
      .set("compiler", std::string(__VERSION__));
  JsonObject stamped = json;
  stamped.set("meta", meta);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = stamped.dump(0) + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace eblcio::bench
