#include "io/transport.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {

// --- SectorEndpoint ----------------------------------------------------------

SectorEndpoint::SectorEndpoint(const PfsSimulator& pfs,
                               TransportConfig config, Executor& ex)
    : drainer_(ex), pfs_(&pfs), config_(config) {
  EBLCIO_CHECK_ARG(config_.sector_bytes > 0, "sector size must be positive");
  EBLCIO_CHECK_ARG(config_.ring_depth >= 1, "ring depth must be >= 1");
  EBLCIO_CHECK_ARG(config_.channels >= 1, "transport needs >= 1 channel");
  rings_.reserve(static_cast<std::size_t>(config_.channels));
  for (int c = 0; c < config_.channels; ++c)
    rings_.emplace_back(config_.ring_depth);
}

SectorEndpoint::~SectorEndpoint() {
  // The derived endpoint waited for the serve loop; a doorbell that could
  // not be rung leaves sectors queued, and they still own credits and
  // buffers.
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

std::size_t SectorEndpoint::stage_sectors(
    std::size_t message, std::size_t offset, std::size_t length,
    const std::function<void(Sector&)>& fill) {
  const std::size_t nsec =
      length == 0 ? 1
                  : (length + config_.sector_bytes - 1) / config_.sector_bytes;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < nsec; ++k) {
    Sector s;
    s.message = message;
    s.offset = offset + pos;
    s.length = std::min(config_.sector_bytes, length - pos);
    pos += s.length;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (error_) std::rethrow_exception(error_);
      s.sector = next_sector_;
      s.channel = static_cast<int>(
          next_sector_ % static_cast<std::size_t>(config_.channels));
      SectorRing& ring = rings_[static_cast<std::size_t>(s.channel)];
      if (!ring.has_credit()) {
        ++stats_.credit_stalls;
        Executor::BlockingScope blocking;
        credit_cv_.wait(lock,
                        [&] { return ring.has_credit() || error_ != nullptr; });
        if (error_) std::rethrow_exception(error_);
      }
      ring.take_credit();
      ++next_sector_;
      if (inflight_ == 0) engage(true);
      ++inflight_;
      ++stats_.sectors;
      stats_.bytes += s.length;
    }
    if (fill) fill(s);
    bool doorbell = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(s));
      if (error_) {
        // The wire failed while this sector was being filled: it retires
        // unserved here, so the rethrow leaves no credit held.
        flush_locked();
        settle_locked();
        std::rethrow_exception(error_);
      }
      doorbell = !drainer_active_;
      drainer_active_ = true;
    }
    if (doorbell) drainer_.run([this] { serve_loop(); });
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.messages;
  return nsec;
}

void SectorEndpoint::flush_locked() {
  for (Sector& s : queue_) {
    rings_[static_cast<std::size_t>(s.channel)].retire();
    --inflight_;
    if (s.data) BufferPool::global().release(std::move(*s.data));
  }
  queue_.clear();
}

void SectorEndpoint::settle_locked() {
  if (inflight_ == 0) engage(false);
  credit_cv_.notify_all();
  done_cv_.notify_all();
}

void SectorEndpoint::serve_loop() {
  for (;;) {
    Sector s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_) {
        // A doorbell rung after the error landed: flush whatever was
        // staged in the meantime.
        flush_locked();
        settle_locked();
        drainer_active_ = false;
        return;
      }
      if (queue_.empty()) {
        drainer_active_ = false;
        return;
      }
      s = std::move(queue_.front());
      queue_.pop_front();
    }
    SectorRecord rec;
    std::exception_ptr failure;
    try {
      // Live contended client count at serve time. This endpoint holds its
      // stream engaged while sectors are in flight, so the stream itself is
      // already in the registry — no +1 here.
      const int clients = std::max(
          1, pfs_->concurrent_writers() + pfs_->concurrent_readers());
      const PfsSimulator::WriteResult r = serve(s, clients);
      // Split the cost into its bytes-over-bandwidth share and its
      // RPC/metadata share.
      rec.message = s.message;
      rec.sector = s.sector;
      rec.channel = s.channel;
      rec.bytes = r.bytes;
      rec.clients = clients;
      rec.xfer_s = r.effective_bw_bps > 0.0
                       ? static_cast<double>(r.bytes) / r.effective_bw_bps
                       : 0.0;
      rec.rpc_s = std::max(0.0, r.seconds - rec.xfer_s);
    } catch (...) {
      failure = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    rings_[static_cast<std::size_t>(s.channel)].retire();
    --inflight_;
    if (failure) {
      error_ = failure;
      flush_locked();
    } else {
      land(s, rec);
      records_.push_back(rec);
    }
    if (s.data) BufferPool::global().release(std::move(*s.data));
    settle_locked();
    if (failure) {
      drainer_active_ = false;
      return;
    }
  }
}

void SectorEndpoint::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto settled = [&] { return inflight_ == 0 || error_ != nullptr; };
  if (!settled()) {
    // Only a drain that really waits blocks its pool thread.
    Executor::BlockingScope blocking;
    done_cv_.wait(lock, settled);
  }
  if (error_) std::rethrow_exception(error_);
}

TransportStats SectorEndpoint::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int SectorEndpoint::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

// --- SectorWriter ------------------------------------------------------------

SectorWriter::SectorWriter(PfsSimulator::AppendStream& stream,
                           TransportConfig config, Executor& ex)
    : SectorEndpoint(stream.pfs(), config, ex), stream_(&stream) {}

// Lets the drainer finish whatever is staged (or flushed, on error). The
// serve loop swallows its own exceptions, so the wait cannot throw.
SectorWriter::~SectorWriter() { drainer_.wait(); }

std::size_t SectorWriter::stage(std::size_t message,
                                std::span<const std::byte> payload) {
  // The staging memcpy into the pooled sector buffer, outside the lock:
  // the bytes the drainer's append will ship.
  return stage_sectors(message, 0, payload.size(), [&](Sector& s) {
    Bytes copy = BufferPool::global().acquire(s.length);
    copy.resize(s.length);
    if (s.length > 0)
      std::memcpy(copy.data(), payload.data() + s.offset, s.length);
    s.data = std::move(copy);
  });
}

PfsSimulator::WriteResult SectorWriter::serve(Sector& s, int clients) {
  return stream_->append(*s.data, clients);
}

void SectorWriter::engage(bool on) {
  if (on) stream_->engage();
  else stream_->disengage();
}

// --- SectorReader ------------------------------------------------------------

SectorReader::SectorReader(PfsSimulator::ReadStream& stream,
                           TransportConfig config, Executor& ex)
    : SectorEndpoint(stream.pfs(), config, ex), stream_(&stream) {}

SectorReader::~SectorReader() {
  drainer_.wait();
  // Messages that were assembled (or aborted) but never awaited still own
  // pooled buffers — give them back.
  for (auto& [handle, msg] : messages_)
    BufferPool::global().release(std::move(msg.data));
}

std::size_t SectorReader::request(std::size_t offset, std::size_t length) {
  std::size_t handle = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_) std::rethrow_exception(error_);
    handle = next_message_++;
    Message msg;
    msg.data = BufferPool::global().acquire(length);
    msg.data.resize(length);
    msg.offset = offset;
    msg.remaining = length;
    messages_.emplace(handle, std::move(msg));
  }
  stage_sectors(handle, offset, length);
  return handle;
}

PfsSimulator::WriteResult SectorReader::serve(Sector& s, int clients) {
  auto r = stream_->read(s.offset, s.length, clients);
  s.data = std::move(r.data);
  return r.cost;
}

void SectorReader::land(const Sector& s, const SectorRecord& rec) {
  auto it = messages_.find(s.message);
  if (it == messages_.end()) return;
  Message& msg = it->second;
  if (s.length > 0)
    std::memcpy(msg.data.data() + (s.offset - msg.offset), s.data->data(),
                s.length);
  msg.wire_s += rec.rpc_s + rec.xfer_s;
  msg.remaining -= s.length;
  if (msg.remaining == 0) msg.done = true;
}

void SectorReader::engage(bool on) {
  if (on) stream_->engage();
  else stream_->disengage();
}

Bytes SectorReader::await(std::size_t handle, double* wire_s_out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = messages_.find(handle);
  EBLCIO_CHECK_ARG(it != messages_.end(),
                   "await on an unknown or already-awaited message");
  const auto landed = [&] { return it->second.done || error_ != nullptr; };
  // request() staged every sector of the message, so until it lands a
  // drainer is queued or running. A queued one runs here; a running one
  // serves the whole queue before it exits. Neither needs another pool
  // worker, so no BlockingScope: codec lanes await on pool threads, and a
  // scope would add a thread to the pool for each await.
  while (!landed()) {
    lock.unlock();
    const bool helped = drainer_.help_one();
    lock.lock();
    if (!helped) done_cv_.wait(lock, landed);
  }
  if (error_ && !it->second.done) {
    // The message can never assemble; its buffer goes back now so a
    // caller that catches the error leaves the pool balanced.
    BufferPool::global().release(std::move(it->second.data));
    messages_.erase(it);
    std::rethrow_exception(error_);
  }
  Message msg = std::move(it->second);
  messages_.erase(it);
  if (wire_s_out) *wire_s_out = msg.wire_s;
  return std::move(msg.data);
}

// --- Timeline solvers --------------------------------------------------------

namespace {

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

// Peak and time-averaged in-flight occupancy of [staged, retired) spans.
void sweep_occupancy(const std::vector<Interval>& spans, double horizon,
                     double* mean_out, int* peak_out) {
  *mean_out = 0.0;
  *peak_out = 0;
  if (spans.empty() || horizon <= 0.0) return;
  std::vector<std::pair<double, int>> events;
  events.reserve(spans.size() * 2);
  double busy = 0.0;
  for (const Interval& iv : spans) {
    events.emplace_back(iv.start, +1);
    events.emplace_back(iv.end, -1);
    busy += iv.end - iv.start;
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  int live = 0, peak = 0;
  for (const auto& [t, d] : events) {
    live += d;
    peak = std::max(peak, live);
  }
  *mean_out = busy / horizon;
  *peak_out = peak;
}

// The wire both solvers stage onto: per-channel service and completion
// history (for ring credits), the serialized client link, and the serial
// staging cursor `tau` (the stage opened the container first, so it starts
// at open_s), with its credit stalls and every sector's [staged, retired)
// span.
struct Wire {
  Wire(const TransportConfig& config, double open_s, std::size_t sectors)
      : chan_free(static_cast<std::size_t>(config.channels), open_s),
        chan_done(static_cast<std::size_t>(config.channels)),
        link_free(open_s),
        depth(static_cast<std::size_t>(config.ring_depth)),
        tau(open_s),
        end(open_s) {
    spans.reserve(sectors);
  }

  // When does the credit for the next sector staged on `channel` free?
  // The ring holds `depth` descriptors, so the k-th staged sector waits
  // for the completion of sector k-depth on its channel.
  double credit_free(int channel) const {
    const auto& hist = chan_done[static_cast<std::size_t>(channel)];
    if (hist.size() < depth) return 0.0;
    return hist[hist.size() - depth];
  }

  // Stages one message's sectors in order: each waits for its channel's
  // credit, the cursor pays its byte share (equal when bytes are equal) of
  // the message's serial stage step, and the channel issues its RPCs once
  // free while the transfer serializes on the link. Returns when the last
  // sector landed (0 for a message without sectors).
  double stage(const std::vector<const SectorRecord*>& msg, double stage_s) {
    std::size_t msg_bytes = 0;
    for (const SectorRecord* s : msg) msg_bytes += s->bytes;
    double landed = 0.0;
    for (const SectorRecord* s : msg) {
      const double share =
          msg_bytes > 0 ? static_cast<double>(s->bytes) /
                              static_cast<double>(msg_bytes)
                        : 1.0 / static_cast<double>(msg.size());
      const double credit_at = credit_free(s->channel);
      if (credit_at > tau) {
        credit_stall_s += credit_at - tau;
        tau = credit_at;
      }
      tau += stage_s * share;
      const std::size_t c = static_cast<std::size_t>(s->channel);
      const double start = std::max(tau, chan_free[c]);
      const double xfer_start = std::max(start + s->rpc_s, link_free);
      const double done = xfer_start + s->xfer_s;
      chan_free[c] = done;
      link_free = done;
      chan_done[c].push_back(done);
      spans.push_back({tau, done});
      landed = std::max(landed, done);
      end = std::max(end, done);
    }
    return landed;
  }

  Timeline timeline(double makespan_s) const {
    Timeline out;
    out.makespan_s = makespan_s;
    out.credit_stall_s = credit_stall_s;
    sweep_occupancy(spans, end, &out.mean_inflight, &out.peak_inflight);
    return out;
  }

  std::vector<double> chan_free;
  std::vector<std::vector<double>> chan_done;
  double link_free;
  std::size_t depth;
  double tau;
  double end;  // last sector retired
  double credit_stall_s = 0.0;
  std::vector<Interval> spans;
};

// Groups records by message ordinal; records arrive in staging order, so
// each message's sectors are contiguous and in order.
std::vector<std::vector<const SectorRecord*>> by_message(
    std::span<const SectorRecord> sectors, std::size_t messages) {
  std::vector<std::vector<const SectorRecord*>> out(messages);
  for (const SectorRecord& s : sectors) {
    EBLCIO_CHECK_ARG(s.message < messages,
                     "sector record names a message past the pipeline");
    out[s.message].push_back(&s);
  }
  return out;
}

// In-order dispatch onto `lanes` identical codec lanes: job i starts once
// it is ready, a lane is free, and job i-1 has started (the pipeline hands
// slabs to lanes in slab order). body(start) returns the job's finish.
class LaneSchedule {
 public:
  explicit LaneSchedule(int lanes) {
    EBLCIO_CHECK_ARG(lanes >= 1, "lane count must be positive");
    free_.assign(static_cast<std::size_t>(lanes), 0.0);
  }

  template <typename Body>
  double run(double ready, Body&& body) {
    const auto lane = std::min_element(free_.begin(), free_.end());
    last_start_ = std::max({ready, *lane, last_start_});
    *lane = body(last_start_);
    return *lane;
  }

 private:
  std::vector<double> free_;
  double last_start_ = 0.0;
};

}  // namespace

std::vector<SectorRecord> eager_wire(std::size_t messages) {
  std::vector<SectorRecord> out(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    out[i].message = i;
    out[i].sector = i;
  }
  return out;
}

Timeline solve_write_timeline(const TransportConfig& config,
                              std::span<const SectorRecord> sectors,
                              std::span<const double> produce_s,
                              std::span<const double> stage_prep_s,
                              std::size_t queue_depth, double open_s,
                              int lanes) {
  const std::size_t n = produce_s.size();
  EBLCIO_CHECK_ARG(stage_prep_s.size() == n,
                   "stage_prep_s must match produce_s");
  const auto msgs = by_message(sectors, n);
  Wire wire(config, open_s, sectors.size());
  // Compression runs on the lanes, admitted once the stager took message
  // i - window; taken[i] is when the staging cursor took message i.
  const std::size_t window = static_cast<std::size_t>(lanes) + queue_depth;
  LaneSchedule schedule(lanes);
  std::vector<double> taken(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double admit = i >= window ? taken[i - window] : 0.0;
    const double fc = schedule.run(
        admit, [&](double start) { return start + produce_s[i]; });
    wire.tau = std::max(wire.tau, fc);
    taken[i] = wire.tau;
    wire.stage(msgs[i], stage_prep_s[i]);
  }
  return wire.timeline(wire.end);
}

Timeline solve_read_timeline(const TransportConfig& config,
                             std::span<const SectorRecord> sectors,
                             std::span<const double> consume_s,
                             std::span<const double> stage_s,
                             std::size_t queue_depth, double open_s,
                             int lanes) {
  const std::size_t n = consume_s.size();
  EBLCIO_CHECK_ARG(stage_s.size() == n, "stage_s must match consume_s");
  const auto msgs = by_message(sectors, n);
  Wire wire(config, open_s, sectors.size());
  // Message i's requests wait for the admission gate (message i - window
  // must have reached a lane); a lane awaits its message's last sector,
  // then decodes it.
  const std::size_t window = 1 + queue_depth;
  LaneSchedule schedule(lanes);
  std::vector<double> dispatched(n, 0.0);
  double makespan = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= window) wire.tau = std::max(wire.tau, dispatched[i - window]);
    const double fetched = wire.stage(msgs[i], stage_s[i]);
    const double fd = schedule.run(wire.tau, [&](double start) {
      dispatched[i] = start;
      return std::max(start, fetched) + consume_s[i];
    });
    makespan = std::max(makespan, fd);
  }
  return wire.timeline(makespan);
}

std::vector<double> blocking_write_seconds(
    const PfsSimulator& pfs, std::size_t header_bytes,
    std::span<const SectorRecord> sectors,
    std::span<const double> stage_prep_s) {
  const auto msgs = by_message(sectors, stage_prep_s.size());
  const double rpc_s = pfs.config().rpc_latency_s;
  std::vector<double> out(msgs.size(), 0.0);
  std::size_t offset = header_bytes;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    std::size_t bytes = 0;
    double xfer_s = 0.0;
    for (const SectorRecord* s : msgs[i]) {
      bytes += s->bytes;
      xfer_s += s->xfer_s;
    }
    out[i] = stage_prep_s[i] +
             static_cast<double>(pfs.append_stripes(offset, bytes)) * rpc_s +
             xfer_s;
    offset += bytes;
  }
  return out;
}

}  // namespace eblcio
