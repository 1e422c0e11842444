// Sector transport model: how the streamed pipelines' chunks would move
// between the node and the PFS as fixed-size sectors over several channels.
//
// Modeled on the SRIO/DMA endpoint design of Cai900205's libips (fixed-size
// sectors, per-channel descriptor rings, credit-based backpressure): an
// endpoint owns N channels, each with a ring of K sector descriptors (= K
// credits). The bytes themselves always move through the blocking
// container append and chunk fetch; what the transport contributes is the
// *modeled* wire. plan_sectors() splits a stream's messages (compressed
// slabs or chunks) into sectors and prices each one on the PFS model, and
// the deterministic solvers below schedule those sectors — where staging
// stalls on credits, how channels overlap per-stripe RPC latency with
// transfer, how many sectors are in flight — beside the pipeline's
// per-message compute times.
//
// Contention rule: every sector of a message is priced at the message's
// self-inclusive client count — the PFS's registered writers plus readers
// plus the moving stream itself, read when the message was appended or
// fetched. Below 7 clients the 2.8 GB/s client link caps the effective
// bandwidth on the default PFS, so the count does not move the price there.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "io/pfs.h"

namespace eblcio {

struct TransportConfig {
  std::size_t sector_bytes = 256u << 10;  // fixed sector payload size
  int ring_depth = 4;                     // descriptors (credits) per channel
  int channels = 2;                       // independent sector rings
};

// One sector descriptor of a planned stream: which message it carried, its
// ordinal in the stream and its channel, and the modeled cost split of its
// wire transfer (per-stripe RPC share vs bytes-over-bandwidth share) at the
// client count it was priced with.
struct SectorRecord {
  std::size_t message = 0;  // producer message (slab / chunk ordinal)
  std::size_t sector = 0;   // ordinal in the whole stream
  int channel = 0;
  std::size_t bytes = 0;
  int clients = 1;     // self-inclusive client count of its message
  double rpc_s = 0.0;  // RPC/metadata share of the transfer
  double xfer_s = 0.0; // bytes / effective-bandwidth share
};

// --- Sector plan -------------------------------------------------------------

// Which PFS operation carries a planned stream's sectors.
enum class SectorOp {
  kAppend,  // appends to a file that already exists (its header landed)
  kFetch,   // ranged reads of a file whose open was already paid
};

// One message of a planned stream: where its bytes sit in the file, how
// many there are, and the self-inclusive client count when it moved.
struct WireMessage {
  std::size_t offset = 0;
  std::size_t bytes = 0;
  int clients = 1;
};

// Splits each message, in order, into sector_bytes-sized sectors (an empty
// message still takes one empty sector) and gives sector k of the whole
// stream to channel k % channels. Each sector is priced as one PFS
// operation on its own extent at its message's client count — an append
// pays a per-stripe RPC for every stripe append_stripes() counts from the
// sector's offset plus its transfer; a fetch pays the ranged-read price
// without the open — and split into xfer_s = bytes / effective bandwidth
// and rpc_s = seconds - xfer_s. Throws InvalidArgument on an invalid
// config.
std::vector<SectorRecord> plan_sectors(const PfsSimulator& pfs,
                                       const TransportConfig& config,
                                       SectorOp op,
                                       std::span<const WireMessage> messages);

// --- Modeled timeline solvers ----------------------------------------------
//
// The deterministic platform schedules of a streamed pipeline, one solver
// per direction. Inputs are modeled (platform) seconds: per-sector
// rpc_s/xfer_s from the planned records, per-message compute from the
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
  std::size_t credit_stalls = 0;  // sectors that waited for a credit
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
