// Sector-ring transport: the asynchronous bottom half between the streamed
// pipelines and the PFS simulator.
//
// Modeled on the SRIO/DMA endpoint design of Cai900205's libips (fixed-size
// sectors, per-channel descriptor rings, doorbell-driven completion): an
// endpoint owns N channels, each with a ring of K fixed-size sector
// descriptors (= K credits). A producer *stages* a message's bytes into
// free sectors — copying into pooled sector buffers and consuming one
// credit per sector — rings a doorbell (an executor task), and blocks only
// when its target channel is out of credits. The doorbell task drains the
// staged sectors in staging order, pricing each transfer at the PFS's
// *live* contended client count, and retires descriptors in per-channel
// FIFO order, returning credits to stalled producers.
//
// Because sectors are served strictly in staging order, the container file
// bytes are identical to what the blocking per-chunk append path writes —
// the transport changes when bytes move and what each movement costs, never
// what lands on the PFS.
//
// Registry accounting: an endpoint registers its stream with the PFS
// writer/reader registry only while sectors are in flight (engage on the
// 0→1 transition, disengage when the rings empty), so an idle open stream
// no longer inflates concurrent_writers()/concurrent_readers() pricing for
// its whole scope.
//
// The endpoints are host machinery (threads, locks, pooled buffers). The
// modeled platform timeline of a transported pipeline — where staging
// stalls on credits, how channels overlap per-stripe RPC latency with
// transfer, how many sectors are in flight — is computed after the fact by
// the deterministic solvers at the bottom of this header, from the retired
// SectorRecords plus the pipeline's per-message compute times.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "io/pfs.h"
#include "parallel/executor.h"

namespace eblcio {

struct TransportConfig {
  std::size_t sector_bytes = 256u << 10;  // fixed sector payload size
  int ring_depth = 4;                     // descriptors (credits) per channel
  int channels = 2;                       // independent sector rings
};

// One retired sector descriptor: which message it carried, its staging
// ordinal and channel, and the modeled cost split of its wire transfer
// (per-stripe RPC share vs bytes-over-bandwidth share) at the contended
// client count it was priced with.
struct SectorRecord {
  std::size_t message = 0;  // producer message (slab / chunk ordinal)
  std::size_t sector = 0;   // global staging ordinal
  int channel = 0;
  std::size_t bytes = 0;
  int clients = 1;     // live contended client count at serve time
  double rpc_s = 0.0;  // RPC/metadata share of the transfer
  double xfer_s = 0.0; // bytes / effective-bandwidth share
};

// Host-side counters for one endpoint's lifetime.
struct TransportStats {
  std::size_t messages = 0;
  std::size_t sectors = 0;
  std::size_t bytes = 0;
  std::size_t credit_stalls = 0;  // host waits for a free descriptor
};

// Per-channel descriptor ring: `depth` credits. Staging a sector takes a
// credit; serving it retires the oldest in-flight descriptor (per-channel
// FIFO — the drainer serves in staging order). Guarded by the owning
// endpoint's mutex.
class SectorRing {
 public:
  explicit SectorRing(int depth) : depth_(depth) {}
  bool has_credit() const { return inflight_ < depth_; }
  void take_credit() { ++inflight_; ++staged_; }
  void retire() { --inflight_; ++retired_; }
  int inflight() const { return inflight_; }
  int depth() const { return depth_; }
  std::size_t staged() const { return staged_; }
  std::size_t retired() const { return retired_; }

 private:
  int depth_;
  int inflight_ = 0;
  std::size_t staged_ = 0;
  std::size_t retired_ = 0;
};

// --- Endpoints ---------------------------------------------------------------

// Write endpoint over one AppendStream. stage() splits a message into
// <= sector_bytes pieces (round-robin across channels in staging order),
// copies each into a pooled sector buffer under a channel credit, and
// rings the doorbell; the doorbell task appends staged sectors to the PFS
// in staging order — so the file bytes equal a blocking append of the same
// messages — and retires descriptors. Exactly one thread may stage (the
// pipeline's consumer); the drainer runs concurrently on the executor.
// A wire error is captured, every staged sector is flushed (buffers
// released, credits returned), and the error rethrows from the next
// stage()/drain().
class SectorWriter {
 public:
  SectorWriter(PfsSimulator::AppendStream& stream, TransportConfig config,
               Executor& ex = Executor::global());
  ~SectorWriter();  // drains; a pending wire error is swallowed
  SectorWriter(const SectorWriter&) = delete;
  SectorWriter& operator=(const SectorWriter&) = delete;

  // Stages `payload` as message `message`; blocks only when the target
  // channel is out of credits. Returns the number of sectors staged (an
  // empty payload still stages one empty sector so the message completes).
  std::size_t stage(std::size_t message, std::span<const std::byte> payload);

  // Blocks until every staged sector has retired; rethrows a wire error.
  // Declares an Executor::BlockingScope only when it has to wait, so an
  // idle drain on a pool thread never grows the pool.
  void drain();

  const TransportConfig& config() const { return config_; }
  TransportStats stats() const;
  int inflight() const;
  // Retired descriptors in service (= staging) order. Stable only while
  // no sectors are in flight (after drain()).
  const std::vector<SectorRecord>& records() const { return records_; }

 private:
  struct Pending {
    std::size_t message = 0;
    std::size_t sector = 0;
    int channel = 0;
    Bytes data;  // pooled sector buffer
  };

  void drain_loop();
  void flush_locked();  // error path: release buffers, return credits

  PfsSimulator::AppendStream* stream_;
  TransportConfig config_;
  TaskGroup drainer_;

  mutable std::mutex mu_;
  std::condition_variable credit_cv_;  // staging waits for a descriptor
  std::condition_variable done_cv_;    // drain() waits for the rings to empty
  std::deque<Pending> queue_;
  std::vector<SectorRing> rings_;
  std::vector<SectorRecord> records_;
  TransportStats stats_;
  std::size_t next_sector_ = 0;
  int inflight_ = 0;
  bool drainer_active_ = false;
  std::exception_ptr error_;
};

// Read endpoint over one ReadStream: the fetch mirror of SectorWriter.
// request() stages the ranged sector fetches of one message (blocking only
// on credits) and returns a message handle; the doorbell task serves the
// fetches in staging order, assembling each message's bytes into a pooled
// buffer; await() blocks until a message's last sector lands and hands the
// assembled bytes (and the message's summed wire seconds) back. Exactly
// one thread may request; await may run on a different thread.
class SectorReader {
 public:
  SectorReader(PfsSimulator::ReadStream& stream, TransportConfig config,
               Executor& ex = Executor::global());
  ~SectorReader();  // waits for the drainer; unawaited buffers released
  SectorReader(const SectorReader&) = delete;
  SectorReader& operator=(const SectorReader&) = delete;

  // Stages the sector fetches for [offset, offset + length) and returns
  // the message handle await() redeems.
  std::size_t request(std::size_t offset, std::size_t length);

  // Blocks until the message assembles; rethrows a wire error (a fetch
  // that failed mid-message). A queued drainer runs on the calling thread
  // meanwhile, so an await on a pool thread never grows the pool.
  // `wire_s_out`, when given, receives the sum of the message's per-sector
  // rpc_s + xfer_s.
  Bytes await(std::size_t handle, double* wire_s_out = nullptr);

  // Blocks until every staged sector has been served (a BlockingScope
  // only when it has to wait, as on the writer).
  void drain();

  const TransportConfig& config() const { return config_; }
  TransportStats stats() const;
  int inflight() const;
  const std::vector<SectorRecord>& records() const { return records_; }

 private:
  struct Pending {
    std::size_t message = 0;
    std::size_t sector = 0;
    int channel = 0;
    std::size_t offset = 0;  // file offset of this sector
    std::size_t length = 0;
    std::size_t dst = 0;     // byte offset inside the message buffer
  };
  struct Message {
    Bytes data;  // pooled assembly buffer
    std::size_t remaining = 0;
    double wire_s = 0.0;
    bool done = false;
  };

  void drain_loop();
  void flush_locked();

  PfsSimulator::ReadStream* stream_;
  TransportConfig config_;
  TaskGroup drainer_;

  mutable std::mutex mu_;
  std::condition_variable credit_cv_;
  std::condition_variable done_cv_;
  std::deque<Pending> queue_;
  std::vector<SectorRing> rings_;
  std::map<std::size_t, Message> messages_;
  std::vector<SectorRecord> records_;
  TransportStats stats_;
  std::size_t next_sector_ = 0;
  std::size_t next_message_ = 0;
  int inflight_ = 0;
  bool drainer_active_ = false;
  std::exception_ptr error_;
};

// --- Modeled timeline solvers ----------------------------------------------
//
// The deterministic platform schedules of a streamed pipeline. Inputs are
// modeled (platform) seconds: per-sector rpc_s/xfer_s from the retired
// records, per-message compute from the monitor (dilated). The wire model
// serializes transfers on the shared client link in staging order — N
// channels overlap per-sector RPC latency with the previous sector's
// transfer, they do not multiply the client's bandwidth.
//
// Every solver takes the pipeline's codec lane count (parallel/lanes.h)
// and schedules the codec stage — produce on the write side, consume on
// the read side — on that many lanes, dispatched in message order as the
// pipeline dispatches them, under its admission rule:
//   - write: message i starts coding once a lane is free and the serial
//     stage has taken message i - (lanes + queue_depth);
//   - read: message i's fetch starts once message i - (1 + queue_depth)
//     was dispatched to a lane.
// With lanes = 1 each solver reproduces the one-producer/one-consumer
// bounded-channel recurrence exactly.

// Write side: message i becomes stageable when its compression finishes;
// the staging cursor takes messages in order, pays the per-message
// container prep, stalls when the target channel is out of credits, and
// each staged sector's transfer starts when its channel and the link are
// free.
struct WriteTimeline {
  double makespan_s = 0.0;      // last sector retired (open included)
  double credit_stall_s = 0.0;  // staging time lost waiting for credits
  double mean_inflight = 0.0;   // time-averaged sectors in flight
  int peak_inflight = 0;        // max sectors simultaneously in flight
};
WriteTimeline solve_write_timeline(const TransportConfig& config,
                                   std::span<const SectorRecord> sectors,
                                   std::span<const double> produce_s,
                                   std::span<const double> stage_prep_s,
                                   std::size_t queue_depth, double open_s,
                                   int lanes);

// Read side: message i's sector requests are staged (costlessly) once a
// pipeline slot frees, gated per sector by channel credits; a lane takes
// message i in order once one is free, and decodes it (consume_s[i] =
// prep + decompress) once its last sector landed.
struct ReadTimeline {
  double makespan_s = 0.0;      // last message consumed
  double credit_stall_s = 0.0;
  double mean_inflight = 0.0;
  int peak_inflight = 0;
};
ReadTimeline solve_read_timeline(const TransportConfig& config,
                                 std::span<const SectorRecord> sectors,
                                 std::span<const double> consume_s,
                                 std::size_t queue_depth, double open_s,
                                 int lanes);

// The blocking (transport-off) pipelines, where each message is one
// blocking container append or fetch. Write: message i is coded on a lane
// (produce_s[i]) and written once it is coded and the writer is free
// (write_s[i]; the writer opens the container first, open_s). Returns the
// last write's finish time.
double solve_blocking_write(std::span<const double> produce_s,
                            std::span<const double> write_s,
                            std::size_t queue_depth, double open_s,
                            int lanes);

// Read: the fetcher fetches message i after message i-1 (the first after
// the open, open_s) and after the admission gate; a lane decodes it
// (consume_s[i]) once fetched. Returns the last decode's finish time.
double solve_blocking_read(std::span<const double> fetch_s,
                           std::span<const double> consume_s,
                           std::size_t queue_depth, double open_s, int lanes);

}  // namespace eblcio
