// bench_e2e's four workloads. Each is a set of closed-loop clients: a
// client issues its next op only after the previous one returned. The
// library receives only generated inputs; --seed drives how each dataset
// is rolled (see dataset()) and the query boxes, and nothing else.
//
//   checkpoint    1 client: streamed dump of NYX 192^3 f32 (SZ3, rel 1e-3,
//                 HDF5, 8 slabs, threads=1), then a streamed restart of it.
//   region_serve  2 clients: random 32^3 boxes read from a pre-written NYX
//                 256^3 container (SZ2, rel 1e-3, NetCDF, 32 zones).
//   mixed_rw      3 clients on one ADIOS PFS that also declares a 253-writer
//                 fleet: CESM dumps with ZFP and with SZx (rel 1e-4) beside
//                 restarts of a pre-written S3D f64 SZ3 container.
//   advise        1 client: advise_compression on NYX 64^3 (25 trials).
#pragma once

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "parallel/executor.h"
#include "replay.h"

namespace e2e {

enum class Phase { kWarmup, kPlain, kTraced };

// One pipeline call (a request) and what it reported.
struct OpRecord {
  const char* kind = "";
  std::uint64_t id = 0;  // span op id of the request
  Phase phase = Phase::kWarmup;
  double host_ms = 0.0;   // wall clock of the pipeline call
  double model_ms = 0.0;  // modeled platform makespan
  double raw_bytes = 0.0; // uncompressed bytes the caller handed in or got back
  double compress_j = 0.0, write_j = 0.0, fetch_j = 0.0, decompress_j = 0.0;
  bool dump = false;      // a streamed write
  bool streamed = false;  // went through the sector transport
  double write_model_ms = 0.0, read_model_ms = 0.0;  // modeled PFS time
  TransportTelemetry transport;
  // Traced requests only (negative = not measured).
  double decode_amp = -1.0, fetch_amp = -1.0;
  double overhead_bytes = -1.0;  // container bytes beyond its chunk payloads
  double sweep_cell_ms = -1.0, sweep_serial_ms = -1.0;

  double joules() const { return compress_j + write_j + fetch_j + decompress_j; }
};

// Lets a traced request's replay run alone: while a replay waits or runs no
// pipeline call starts, and a replay starts only once no pipeline call is
// running. Pipeline calls still overlap one another as in untraced runs.
class ReplayGate {
 public:
  class Call {
   public:
    explicit Call(ReplayGate& g) : g_(g) {
      std::unique_lock<std::mutex> lock(g_.mu_);
      g_.cv_.wait(lock, [&] { return g_.replays_ == 0; });
      ++g_.calls_;
    }
    ~Call() {
      std::lock_guard<std::mutex> lock(g_.mu_);
      --g_.calls_;
      g_.cv_.notify_all();
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    ReplayGate& g_;
  };

  class Replay {
   public:
    explicit Replay(ReplayGate& g) : g_(g) {
      std::unique_lock<std::mutex> lock(g_.mu_);
      ++g_.replays_;
      g_.cv_.wait(lock, [&] { return g_.calls_ == 0 && !g_.replaying_; });
      g_.replaying_ = true;
    }
    ~Replay() {
      std::lock_guard<std::mutex> lock(g_.mu_);
      g_.replaying_ = false;
      --g_.replays_;
      g_.cv_.notify_all();
    }
    Replay(const Replay&) = delete;
    Replay& operator=(const Replay&) = delete;

   private:
    ReplayGate& g_;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;    // pipeline calls running
  int replays_ = 0;  // replays waiting or running
  bool replaying_ = false;
};

struct OpContext {
  Phase phase = Phase::kWarmup;
  std::size_t index = 0;  // this client's op ordinal, warm-up ops included
  ReplayGate* gate = nullptr;
};

inline std::uint64_t next_op_id() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}

// Runs one pipeline call as request rec.id and returns its result. The call
// is always timed. In the traced phase it runs inside the request's root
// span; then `replay(result)` replays it under its own span (alone, see
// ReplayGate) and `check(result, replayed)` requires parity.
template <typename Call, typename Replay, typename Check>
auto run_request(const OpContext& ctx, OpRecord& rec, Call&& call,
                 Replay&& replay, Check&& check) {
  rec.id = next_op_id();
  rec.phase = ctx.phase;
  if (ctx.phase != Phase::kTraced) {
    WallTimer t;
    auto result = call();
    rec.host_ms = t.elapsed_s() * 1e3;
    return result;
  }
  auto result = [&] {
    ReplayGate::Call gate(*ctx.gate);
    SpanScope span("pipeline", "core.pipeline", rec.id);
    WallTimer t;
    auto r = call();
    rec.host_ms = t.elapsed_s() * 1e3;
    return r;
  }();
  const auto replayed = [&] {
    ReplayGate::Replay gate(*ctx.gate);
    SpanScope span("replay", "core.replay", rec.id);
    return replay(result);
  }();
  check(result, replayed);
  return result;
}

inline void fill(OpRecord& rec, const StreamWriteRecord& w) {
  rec.dump = true;
  rec.streamed = w.transport.channels > 0;
  rec.model_ms = w.streamed_total_s * 1e3;
  rec.raw_bytes = static_cast<double>(w.original_bytes);
  rec.compress_j = w.compress_j;
  rec.write_j = w.write_j;
  for (const double s : w.slab_write_s) rec.write_model_ms += s * 1e3;
  rec.transport = w.transport;
}

inline void fill(OpRecord& rec, const StreamReadRecord& r) {
  rec.streamed = r.transport.channels > 0;
  rec.model_ms = r.streamed_total_s * 1e3;
  rec.raw_bytes = static_cast<double>(r.field_bytes);
  rec.fetch_j = r.fetch_j;
  rec.decompress_j = r.decompress_j;
  for (const double s : r.slab_fetch_s) rec.read_model_ms += s * 1e3;
  rec.transport = r.transport;
}

inline void fill(OpRecord& rec, const RegionReadRecord& r) {
  rec.streamed = r.transport.channels > 0;
  rec.model_ms = r.streamed_total_s * 1e3;
  rec.raw_bytes = static_cast<double>(r.field_bytes);
  rec.fetch_j = r.fetch_j;
  rec.decompress_j = r.decompress_j;
  for (const double s : r.zone_fetch_s) rec.read_model_ms += s * 1e3;
  rec.transport = r.transport;
}

inline std::uint64_t fnv64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A container the set-up wrote, proven identical to its blocking twin.
struct ContainerInfo {
  std::string path;
  std::uint64_t fnv = 0;
  std::size_t bytes = 0;
  std::size_t raw_bytes = 0;
};

// Dumps `field` through the streamed pipeline into `pfs` and again with the
// sector transport off into a scratch simulator; the two containers must be
// byte-identical.
inline ContainerInfo write_checked(const Field& field,
                                   const PipelineConfig& config,
                                   StreamConfig stream, PfsSimulator& pfs) {
  const auto rec = run_streamed_compress_write(field, config, pfs, stream);
  PfsSimulator twin_pfs;
  stream.use_transport = false;
  const auto twin = run_streamed_compress_write(field, config, twin_pfs, stream);
  const Bytes bytes = pfs.read_file(rec.path);
  require(same_bytes(bytes, twin_pfs.read_file(twin.path)),
          "transported container differs from its blocking twin: " + rec.path);
  return {rec.path, fnv64(bytes), bytes.size(), field.size_bytes()};
}

// `in` rolled by `shift` along every axis: out[i] = in[(i - shift) mod n].
template <typename T>
NdArray<T> rolled(const NdArray<T>& in, const std::vector<std::size_t>& shift) {
  const Shape& shape = in.shape();
  const int nd = shape.ndims();
  const auto strides = shape.strides();
  const std::size_t row = shape.dim(nd - 1);
  const std::size_t k = shift[static_cast<std::size_t>(nd - 1)];
  NdArray<T> out(shape);
  for (std::size_t r = 0; r < shape.num_elements() / row; ++r) {
    std::size_t rem = r, src = 0;
    for (int d = 0; d + 1 < nd; ++d) {
      const std::size_t rows_per_index = strides[d] / row;
      const std::size_t n = shape.dim(d);
      const std::size_t i = rem / rows_per_index;
      rem %= rows_per_index;
      src += (i + n - shift[static_cast<std::size_t>(d)]) % n * rows_per_index;
    }
    const T* from = in.data() + src * row;
    T* to = out.data() + r * row;
    std::memcpy(to + k, from, (row - k) * sizeof(T));
    std::memcpy(to, from + (row - k), k * sizeof(T));
  }
  return out;
}

// The generator's realization at this fixed seed is every run's base input.
inline constexpr std::uint64_t kDatasetSeed = 42;

// The input of `seed`: the base realization of `name` at `dims` (scaled
// linearly, at least 8, keeping a leading species/level axis), rolled by
// seed-drawn offsets along every axis. Every seed thus has its own bytes,
// slab cuts and zone contents but the same value distribution and range,
// so value-range-relative bounds, ratios and costs stay comparable across
// seeds; independent realizations of these generators differ by up to 2.5x
// in ratio.
inline Field dataset(const std::string& name, std::vector<std::size_t> dims,
                     bool keep_first, double scale, std::uint64_t seed) {
  for (std::size_t d = keep_first ? 1 : 0; d < dims.size(); ++d)
    dims[d] = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               std::llround(static_cast<double>(dims[d]) * scale)));
  const Field base = generate_dataset_dims(name, dims, kDatasetSeed);
  Rng rng(seed);
  std::vector<std::size_t> shift;
  for (const std::size_t n : dims)
    shift.push_back(static_cast<std::size_t>(rng.next_below(n)));
  return base.visit(
      [&](const auto& arr) { return Field(name, rolled(arr, shift)); });
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  // Generates the inputs and writes the pre-written containers. Runs once
  // per set-up repetition; the last repetition's state is measured.
  virtual void setup(std::uint64_t seed, double scale) = 0;
  // Runs once after the last set-up, before the warm-up (not timed).
  virtual void start() {}
  virtual void stop() {}
  // Runs client `client`'s next op, appending one record per pipeline call.
  // Throws on any error or wrong output.
  virtual void op(int client, const OpContext& ctx,
                  std::vector<OpRecord>& out) = 0;
  // The simulator the clients share (null when the workload does no I/O).
  virtual PfsSimulator* pfs() { return nullptr; }

  double ratio() const { return ratio_; }
  double psnr_db() const {
    double sum = 0.0;
    for (const double p : psnr_) sum += p;
    return psnr_.empty() ? 0.0 : sum / static_cast<double>(psnr_.size());
  }
  const std::vector<ContainerInfo>& containers() const { return containers_; }

 protected:
  // Set by setup (containers) or by each client's first op (quality).
  double ratio_ = 0.0;
  std::vector<double> psnr_;  // one slot per quality source
  std::vector<ContainerInfo> containers_;

  // A streamed dump as a request: replayed into a scratch simulator, whose
  // container must equal the pipeline's byte for byte.
  StreamWriteRecord dump(const OpContext& ctx, OpRecord& rec, const Field& field,
                         const PipelineConfig& config,
                         const StreamConfig& stream, PfsSimulator& pfs) {
    ReplayScratch scratch;
    const auto w = run_request(
        ctx, rec,
        [&] { return run_streamed_compress_write(field, config, pfs, stream); },
        [&](const StreamWriteRecord&) {
          return replay_dump(field, config, stream.slabs, scratch, rec.id);
        },
        [&](const StreamWriteRecord& piped, const std::string& path) {
          require(same_bytes(pfs.read_file(piped.path),
                             scratch.pfs.read_file(path)),
                  "replayed dump differs from the pipeline's: " + path);
          const auto reader =
              io_tool(config.io_library).open_chunked_reader(scratch.pfs, path);
          rec.overhead_bytes = static_cast<double>(
              scratch.pfs.file_size(path) - reader.index().total_bytes());
        });
    fill(rec, w);
    return w;
  }

  // A streamed restart as a request; the replay must rebuild the identical
  // field.
  StreamReadRecord restart(const OpContext& ctx, OpRecord& rec,
                           const std::string& path,
                           const PipelineConfig& config,
                           const StreamConfig& stream, PfsSimulator& pfs) {
    ReplayScratch scratch;
    const auto r = run_request(
        ctx, rec, [&] { return run_streamed_read(pfs, path, config, stream); },
        [&](const StreamReadRecord&) {
          return replay_restart(pfs, path, config.io_library, scratch, rec.id);
        },
        [&](const StreamReadRecord& piped, const Field& replayed) {
          require(same_bytes(piped.field.bytes(), replayed.bytes()),
                  "replayed restart differs from the pipeline's: " + path);
          rec.overhead_bytes = static_cast<double>(scratch.container_bytes -
                                                   scratch.payload_bytes);
        });
    fill(rec, r);
    return r;
  }
};

// --- checkpoint ----------------------------------------------------------

class Checkpoint : public Workload {
 public:
  Checkpoint() {
    config_.codec = "SZ3";
    config_.error_bound = 1e-3;
    config_.io_library = "HDF5";
    stream_.slabs = 8;
    psnr_.assign(1, 0.0);
  }
  int clients() const override { return 1; }
  PfsSimulator* pfs() override { return pfs_.get(); }

  void setup(std::uint64_t seed, double scale) override {
    field_ = dataset("NYX", {192, 192, 192}, false, scale, seed);
    pfs_ = std::make_unique<PfsSimulator>();
    containers_ = {write_checked(field_, config_, stream_, *pfs_)};
    ratio_ = static_cast<double>(field_.size_bytes()) /
             static_cast<double>(containers_[0].bytes);
  }

  void op(int, const OpContext& ctx, std::vector<OpRecord>& out) override {
    OpRecord d;
    d.kind = "dump";
    const auto w = dump(ctx, d, field_, config_, stream_, *pfs_);
    out.push_back(d);

    OpRecord r;
    r.kind = "restart";
    const auto back = restart(ctx, r, w.path, config_, stream_, *pfs_);
    require(check_value_range_bound(field_, back.field, config_.error_bound),
            "restart violates the error bound");
    if (ctx.index == 0)
      psnr_[0] = compute_error_stats(field_, back.field).psnr_db;
    out.push_back(r);
  }

 private:
  PipelineConfig config_;
  StreamConfig stream_;
  Field field_;
  std::unique_ptr<PfsSimulator> pfs_;
};

// --- region_serve --------------------------------------------------------

class RegionServe : public Workload {
 public:
  RegionServe() {
    config_.codec = "SZ2";
    config_.error_bound = 1e-3;
    config_.io_library = "NetCDF";
    stream_.slabs = 32;
    psnr_.assign(1, 0.0);
  }
  int clients() const override { return 2; }
  PfsSimulator* pfs() override { return pfs_.get(); }

  void setup(std::uint64_t seed, double scale) override {
    field_ = dataset("NYX", {256, 256, 256}, false, scale, seed);
    box_ = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::llround(32.0 * scale)));
    pfs_ = std::make_unique<PfsSimulator>();
    containers_ = {write_checked(field_, config_, stream_, *pfs_)};
    ratio_ = static_cast<double>(field_.size_bytes()) /
             static_cast<double>(containers_[0].bytes);
    rngs_.clear();
    for (int c = 0; c < clients(); ++c)
      rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + 1 +
                         static_cast<std::uint64_t>(c));
  }

  // The whole container decoded once by the serial reference reader: its
  // quality is the psnr_db of every region this workload serves.
  void start() override {
    const Field back =
        read_chunked_field(*pfs_, containers_[0].path, config_.io_library);
    require(check_value_range_bound(field_, back, config_.error_bound),
            "container violates the error bound");
    psnr_[0] = compute_error_stats(field_, back).psnr_db;
    abs_bound_ = config_.error_bound * field_.value_range().span();
  }

  void op(int client, const OpContext& ctx,
          std::vector<OpRecord>& out) override {
    Region box;
    for (int d = 0; d < field_.ndims(); ++d) {
      box.shape.push_back(box_);
      box.start.push_back(static_cast<std::size_t>(
          rngs_[static_cast<std::size_t>(client)].next_below(
              field_.shape().dim(d) - box_ + 1)));
    }
    const std::string& path = containers_[0].path;
    const double box_share = static_cast<double>(box.num_elements()) /
                             static_cast<double>(field_.num_elements());

    OpRecord q;
    q.kind = "query";
    ReplayScratch scratch;
    const auto r = run_request(
        ctx, q,
        [&] {
          return run_streamed_read_region(*pfs_, path, box, config_, stream_);
        },
        [&](const RegionReadRecord&) {
          return replay_query(*pfs_, path, box, config_.io_library, scratch,
                              q.id);
        },
        [&](const RegionReadRecord& piped, const Field& replayed) {
          require(same_bytes(piped.field.bytes(), replayed.bytes()),
                  "replayed query differs from the pipeline's");
          q.decode_amp = scratch.decoded_elements /
                         static_cast<double>(box.num_elements());
          q.fetch_amp = static_cast<double>(scratch.fetched_bytes) /
                        (static_cast<double>(scratch.payload_bytes) * box_share);
          q.overhead_bytes = static_cast<double>(scratch.container_bytes -
                                                 scratch.payload_bytes);
        });
    fill(q, r);
    // A fixed 1-in-10 sample is checked against the serial reference reader
    // bit for bit, and against the original values within the bound.
    if (ctx.index % 10 == 0) {
      const Field ref =
          read_region_reference(*pfs_, path, box, config_.io_library);
      require(same_bytes(ref.bytes(), r.field.bytes()),
              "query differs from read_region_reference");
      const ErrorStats st =
          compute_error_stats(extract_region(field_, box), r.field);
      require(st.max_abs_error <= abs_bound_ * (1.0 + 1e-9),
              "query violates the error bound");
    }
    out.push_back(q);
  }

 private:
  PipelineConfig config_;
  StreamConfig stream_;
  Field field_;
  std::size_t box_ = 32;
  double abs_bound_ = 0.0;
  std::unique_ptr<PfsSimulator> pfs_;
  std::vector<Rng> rngs_;  // one query stream per client
};

// --- mixed_rw ------------------------------------------------------------

class MixedRw : public Workload {
 public:
  // Clients beside this benchmark's three that the PFS is told are writing.
  static constexpr int kFleet = 253;

  MixedRw() {
    const char* codecs[] = {"ZFP", "SZx", "SZ3"};
    for (int c = 0; c < 3; ++c) {
      configs_[c].codec = codecs[c];
      configs_[c].error_bound = 1e-4;
      configs_[c].io_library = "ADIOS";
    }
    stream_.slabs = 8;
    psnr_.assign(3, 0.0);
  }
  int clients() const override { return 3; }
  PfsSimulator* pfs() override { return pfs_.get(); }

  void setup(std::uint64_t seed, double scale) override {
    const Field cesm = dataset("CESM", {26, 180, 360}, true, scale, seed);
    fields_[0] = cesm;
    fields_[0].set_name("CESM-ZFP");
    fields_[1] = cesm;
    fields_[1].set_name("CESM-SZx");
    fields_[2] = dataset("S3D", {11, 80, 80, 80}, true, scale, seed);
    pfs_ = std::make_unique<PfsSimulator>();
    containers_.clear();
    double raw = 0.0, stored = 0.0;
    for (int c = 0; c < 3; ++c) {
      containers_.push_back(
          write_checked(fields_[c], configs_[c], stream_, *pfs_));
      raw += static_cast<double>(containers_.back().raw_bytes);
      stored += static_cast<double>(containers_.back().bytes);
    }
    ratio_ = raw / stored;
  }

  void start() override {
    fleet_ = std::make_unique<PfsSimulator::WriterScope>(*pfs_, kFleet);
  }
  void stop() override { fleet_.reset(); }

  void op(int client, const OpContext& ctx,
          std::vector<OpRecord>& out) override {
    const Field& field = fields_[client];
    const PipelineConfig& config = configs_[client];
    OpRecord rec;
    if (client < 2) {
      rec.kind = client == 0 ? "dump-zfp" : "dump-szx";
      const auto w = dump(ctx, rec, field, config, stream_, *pfs_);
      // Every 10th dump is read back and checked against the bound.
      if (ctx.index % 10 == 0) {
        const Field back = read_chunked_field(*pfs_, w.path, config.io_library);
        require(check_value_range_bound(field, back, config.error_bound),
                "dump violates the error bound: " + w.path);
        if (ctx.index == 0)
          psnr_[client] = compute_error_stats(field, back).psnr_db;
      }
    } else {
      rec.kind = "restart";
      const auto back = restart(ctx, rec, containers_[2].path, config, stream_,
                                *pfs_);
      require(check_value_range_bound(field, back.field, config.error_bound),
              "restart violates the error bound");
      if (ctx.index == 0)
        psnr_[client] = compute_error_stats(field, back.field).psnr_db;
    }
    out.push_back(rec);
  }

 private:
  PipelineConfig configs_[3];  // per client: ZFP writer, SZx writer, reader
  Field fields_[3];
  StreamConfig stream_;
  std::unique_ptr<PfsSimulator> pfs_;
  std::unique_ptr<PfsSimulator::WriterScope> fleet_;
};

// --- advise --------------------------------------------------------------

class Advise : public Workload {
 public:
  Advise() { psnr_.assign(1, 0.0); }
  int clients() const override { return 1; }

  void setup(std::uint64_t seed, double scale) override {
    // 64^3 is the advisor's whole sample, so every seed's trials see the
    // same values (a larger field's centered sample would be a different
    // block of it for every roll).
    field_ = dataset("NYX", {64, 64, 64}, false, scale, seed);
  }

  void op(int, const OpContext& ctx, std::vector<OpRecord>& out) override {
    OpRecord rec;
    rec.kind = "advise";
    ReplayScratch scratch;
    SweepStats sweep;
    const auto report = run_request(
        ctx, rec, [&] { return advise_compression(field_, constraints_); },
        [&](const AdvisorReport&) {
          return replay_advise(field_, constraints_, scratch, rec.id, sweep);
        },
        [&](const AdvisorReport& piped,
            const std::vector<AdvisorCandidate>& replayed) {
          require(trials(replayed) == trials(piped.candidates),
                  "replayed advisor trials differ from the pipeline's");
          rec.sweep_serial_ms = sweep.cell_seconds * 1e3;
          rec.sweep_cell_ms =
              rec.sweep_serial_ms / static_cast<double>(sweep.cells);
        });
    require(!report.recommendation.codec.empty() &&
                report.recommendation.psnr_db >= constraints_.psnr_min_db,
            "advisor found no feasible configuration");
    // Sizes and quality are deterministic; only the scores (which divide by
    // measured energy) may reorder the candidates between calls.
    const auto now = trials(report.candidates);
    if (ctx.index == 0) {
      first_ = now;
      double inv_ratio = 0.0, psnr = 0.0;
      for (const auto& [codec, eb, ratio, p] : now) {
        inv_ratio += 1.0 / ratio;
        psnr += p;
      }
      ratio_ = static_cast<double>(now.size()) / inv_ratio;
      psnr_[0] = psnr / static_cast<double>(now.size());
    }
    require(!now.empty() && now == first_,
            "advisor trials changed between calls");

    rec.raw_bytes = static_cast<double>(field_.size_bytes());
    for (const auto& c : report.candidates) rec.compress_j += c.compress_j;
    PowercapMonitor monitor(cpu_model(constraints_.cpu));
    rec.model_ms = monitor
                       .record_compute("advise", rec.host_ms * 1e-3,
                                       Executor::global().concurrency())
                       .seconds *
                   1e3;
    out.push_back(rec);
  }

 private:
  using Trial = std::tuple<std::string, double, double, double>;

  // (codec, bound, ratio, psnr) of every candidate, in a fixed order.
  static std::vector<Trial> trials(const std::vector<AdvisorCandidate>& cands) {
    std::vector<Trial> out;
    for (const auto& c : cands)
      out.emplace_back(c.codec, c.error_bound, c.ratio, c.psnr_db);
    std::sort(out.begin(), out.end());
    return out;
  }

  Field field_;
  AdvisorConstraints constraints_;
  std::vector<Trial> first_;
};

inline std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "checkpoint") return std::make_unique<Checkpoint>();
  if (name == "region_serve") return std::make_unique<RegionServe>();
  if (name == "mixed_rw") return std::make_unique<MixedRw>();
  if (name == "advise") return std::make_unique<Advise>();
  return nullptr;
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"checkpoint", "region_serve",
                                                 "mixed_rw", "advise"};
  return names;
}

}  // namespace e2e
