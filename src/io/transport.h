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
#include <functional>
#include <map>
#include <mutex>
#include <optional>
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

// The direction-independent half of a sector endpoint (libips runs its tx
// and rx halves off one descriptor-ring control block the same way): the
// rings, credit acquisition, the doorbell, and the serve loop that dequeues
// staged sectors in staging order, runs the endpoint's wire step on each,
// retires its descriptor and — on a wire error — flushes every staged
// sector so no credit or pooled buffer leaks, the error rethrowing from the
// next stage or drain. The stream counts toward the PFS registry only while
// sectors are in flight. Exactly one thread may stage; the serve loop runs
// on the executor.
class SectorEndpoint {
 public:
  SectorEndpoint(const SectorEndpoint&) = delete;
  SectorEndpoint& operator=(const SectorEndpoint&) = delete;

  // Blocks until every staged sector has been served; rethrows a wire
  // error. Declares an Executor::BlockingScope only when it has to wait, so
  // an idle drain on a pool thread never grows the pool.
  void drain();

  const TransportConfig& config() const { return config_; }
  TransportStats stats() const;
  int inflight() const;
  // Retired descriptors in service (= staging) order. Stable only while
  // no sectors are in flight (after drain()).
  const std::vector<SectorRecord>& records() const { return records_; }

 protected:
  // One staged sector descriptor.
  struct Sector {
    std::size_t message = 0;
    std::size_t sector = 0;  // global staging ordinal
    int channel = 0;
    std::size_t offset = 0;  // position of its first byte (see stage_sectors)
    std::size_t length = 0;
    // The pooled buffer the sector owns, released once it is served or
    // flushed: the writer's staged copy, the reader's fetched bytes.
    std::optional<Bytes> data;
  };

  SectorEndpoint(const PfsSimulator& pfs, TransportConfig config,
                 Executor& ex);
  // Derived destructors wait for drainer_ first: the serve loop calls
  // their hooks.
  ~SectorEndpoint();

  // Stages `length` bytes of `message` as sector_bytes-sized sectors,
  // round-robin across channels in staging order (an empty message still
  // stages one empty sector so it completes). Sector offsets run from
  // `offset`. Each sector takes a credit on its channel — blocking, under a
  // BlockingScope, only while the channel has none — is passed to `fill`
  // outside the lock, and rings the doorbell. Returns the sector count.
  std::size_t stage_sectors(std::size_t message, std::size_t offset,
                            std::size_t length,
                            const std::function<void(Sector&)>& fill = {});

  // The wire step, on the drainer outside the lock: moves one sector priced
  // at `clients` contended clients.
  virtual PfsSimulator::WriteResult serve(Sector& s, int clients) = 0;
  // Under the lock, after a sector was served (message assembly).
  virtual void land(const Sector& /*s*/, const SectorRecord& /*rec*/) {}
  // Registers (true) or unregisters the stream with the PFS registry.
  virtual void engage(bool on) = 0;

  TaskGroup drainer_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // a sector retired or the wire failed
  std::exception_ptr error_;

 private:
  void serve_loop();
  void flush_locked();   // error path: every queued sector retires unserved
  void settle_locked();  // disengage once idle, wake stagers and drains

  const PfsSimulator* pfs_;
  TransportConfig config_;
  std::condition_variable credit_cv_;  // staging waits for a descriptor
  std::deque<Sector> queue_;
  std::vector<SectorRing> rings_;
  std::vector<SectorRecord> records_;
  TransportStats stats_;
  std::size_t next_sector_ = 0;
  int inflight_ = 0;
  bool drainer_active_ = false;
};

// Write endpoint over one AppendStream. stage() copies a message into
// pooled sector buffers and the drainer appends them to the PFS in staging
// order — so the file bytes equal a blocking append of the same messages.
// A wire error rethrows from the next stage()/drain().
class SectorWriter : public SectorEndpoint {
 public:
  SectorWriter(PfsSimulator::AppendStream& stream, TransportConfig config,
               Executor& ex = Executor::global());
  ~SectorWriter();  // drains; a pending wire error is swallowed

  // Stages `payload` as message `message`; blocks only when the target
  // channel is out of credits. Returns the number of sectors staged (an
  // empty payload still stages one empty sector so the message completes).
  std::size_t stage(std::size_t message, std::span<const std::byte> payload);

 private:
  PfsSimulator::WriteResult serve(Sector& s, int clients) override;
  void engage(bool on) override;

  PfsSimulator::AppendStream* stream_;
};

// Read endpoint over one ReadStream: the fetch mirror of SectorWriter.
// request() stages the ranged sector fetches of one message (blocking only
// on credits) and returns a message handle; the drainer serves the fetches
// in staging order, assembling each message's bytes into a pooled buffer;
// await() blocks until a message's last sector lands and hands the
// assembled bytes (and the message's summed wire seconds) back. Exactly
// one thread may request; await may run on a different thread.
class SectorReader : public SectorEndpoint {
 public:
  SectorReader(PfsSimulator::ReadStream& stream, TransportConfig config,
               Executor& ex = Executor::global());
  ~SectorReader();  // waits for the drainer; unawaited buffers released

  // Stages the sector fetches for [offset, offset + length) and returns
  // the message handle await() redeems.
  std::size_t request(std::size_t offset, std::size_t length);

  // Blocks until the message assembles; rethrows a wire error (a fetch
  // that failed mid-message). A queued drainer runs on the calling thread
  // meanwhile, so an await on a pool thread never grows the pool.
  // `wire_s_out`, when given, receives the sum of the message's per-sector
  // rpc_s + xfer_s.
  Bytes await(std::size_t handle, double* wire_s_out = nullptr);

 private:
  struct Message {
    Bytes data;                 // pooled assembly buffer
    std::size_t offset = 0;     // file offset of its first byte
    std::size_t remaining = 0;  // bytes still to land
    double wire_s = 0.0;
    bool done = false;
  };

  PfsSimulator::WriteResult serve(Sector& s, int clients) override;
  void land(const Sector& s, const SectorRecord& rec) override;
  void engage(bool on) override;

  PfsSimulator::ReadStream* stream_;
  std::map<std::size_t, Message> messages_;  // guarded by mu_
  std::size_t next_message_ = 0;
};

// --- Modeled timeline solvers ----------------------------------------------
//
// The deterministic platform schedules of a streamed pipeline, one solver
// per direction. Inputs are modeled (platform) seconds: per-sector
// rpc_s/xfer_s from the retired records, per-message compute from the
// monitor (dilated). The wire model serializes transfers on the shared
// client link in staging order — N channels overlap per-sector RPC latency
// with the previous sector's transfer, they do not multiply the client's
// bandwidth.
//
// Both solvers stage each message's sectors in order from one serial
// staging cursor: a sector waits for its channel's credit, then the cursor
// pays the sector's byte share of the message's serial stage step, then
// the sector is served. The transport-off (blocking) pipelines are the
// eager-wire case: eager_wire() gives one zero-cost sector per message on
// channel 0, which never waits for a credit, and each message pays its
// whole blocking container append or fetch as its stage step.
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
struct Timeline {
  double makespan_s = 0.0;      // write: last sector retired (open
                                // included); read: last message consumed
  double credit_stall_s = 0.0;  // staging time lost waiting for credits
  double mean_inflight = 0.0;   // time-averaged sectors in flight
  int peak_inflight = 0;        // max sectors simultaneously in flight
};

// One zero-cost sector per message on channel 0: the wire of a pipeline
// whose every message is one blocking append or fetch. Any valid
// TransportConfig schedules it identically.
std::vector<SectorRecord> eager_wire(std::size_t messages);

// Write side: message i becomes stageable when its compression finishes;
// the staging cursor takes messages in order and pays the per-message
// container prep (stage_prep_s), and each staged sector's transfer starts
// when its channel and the link are free.
Timeline solve_write_timeline(const TransportConfig& config,
                              std::span<const SectorRecord> sectors,
                              std::span<const double> produce_s,
                              std::span<const double> stage_prep_s,
                              std::size_t queue_depth, double open_s,
                              int lanes);

// What each message of a transported write would have cost as one
// blocking container append (the write record's blocking_total_s
// reconstruction, the eager wire's stage_prep_s): its staging prep
// (stage_prep_s[i]), a per-stripe RPC for every stripe appending its bytes
// touches (the messages follow `header_bytes` in the container, in order),
// and its sectors' summed transfer shares.
std::vector<double> blocking_write_seconds(
    const PfsSimulator& pfs, std::size_t header_bytes,
    std::span<const SectorRecord> sectors,
    std::span<const double> stage_prep_s);

// Read side: message i's sector requests are staged once a pipeline slot
// frees, paying stage_s[i] (zero under the transport, where requests are
// cheap descriptor writes; the whole blocking fetch on the eager wire); a
// lane takes message i in order once one is free, and decodes it
// (consume_s[i]) once its last sector landed.
Timeline solve_read_timeline(const TransportConfig& config,
                             std::span<const SectorRecord> sectors,
                             std::span<const double> consume_s,
                             std::span<const double> stage_s,
                             std::size_t queue_depth, double open_s,
                             int lanes);

}  // namespace eblcio
