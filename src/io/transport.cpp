#include "io/transport.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace eblcio {

// --- Sector plan -------------------------------------------------------------

std::vector<SectorRecord> plan_sectors(const PfsSimulator& pfs,
                                       const TransportConfig& config,
                                       SectorOp op,
                                       std::span<const WireMessage> messages) {
  EBLCIO_CHECK_ARG(config.sector_bytes > 0, "sector size must be positive");
  EBLCIO_CHECK_ARG(config.ring_depth >= 1, "ring depth must be >= 1");
  EBLCIO_CHECK_ARG(config.channels >= 1, "transport needs >= 1 channel");
  const auto channels = static_cast<std::size_t>(config.channels);
  std::vector<SectorRecord> out;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    const WireMessage& msg = messages[m];
    std::size_t pos = 0;
    do {
      const std::size_t length = std::min(config.sector_bytes, msg.bytes - pos);
      const PfsSimulator::WriteResult r =
          op == SectorOp::kAppend
              ? pfs.append_price(msg.offset + pos, length, msg.clients)
              : pfs.read_price(msg.offset + pos, length, msg.clients,
                               /*pay_open=*/false);
      SectorRecord rec;
      rec.message = m;
      rec.sector = out.size();
      rec.channel = static_cast<int>(rec.sector % channels);
      rec.bytes = length;
      rec.clients = msg.clients;
      rec.xfer_s = r.effective_bw_bps > 0.0
                       ? static_cast<double>(length) / r.effective_bw_bps
                       : 0.0;
      rec.rpc_s = std::max(0.0, r.seconds - rec.xfer_s);
      out.push_back(rec);
      pos += length;
    } while (pos < msg.bytes);
  }
  return out;
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
        ++credit_stalls;
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
    out.credit_stalls = credit_stalls;
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
  std::size_t credit_stalls = 0;
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
