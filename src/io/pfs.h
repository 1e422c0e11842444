// Lustre-class parallel-file-system simulator.
//
// The paper writes to a Lustre 2.15 PFS from one node (Fig. 11) and from up
// to 512 cores (Fig. 12). We reproduce the two mechanisms its I/O-energy
// findings rest on:
//  * write time = RPC/metadata latency + bytes / effective bandwidth, where
//    effective bandwidth is limited by the client link, by the file's
//    stripe width, and by the aggregate OST capacity, and
//  * contention: with N concurrent clients the aggregate capacity is shared
//    and metadata service time grows, producing the super-linear jump the
//    paper observes from 256 to 512 cores for uncompressed writes.
//
// Files are really stored (striped across in-memory OST buffers) and really
// reassembled on read, so container round-trip tests are end-to-end.
//
// Thread-safety: all file operations serialize on an internal mutex, so
// concurrent clients (batched node×rank worlds, streaming pipelines, sweep
// cells sharing one PFS) may write/read without external locking. The
// writer/reader registries (WriterScope / ReaderScope) are lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace eblcio {

struct PfsConfig {
  int num_osts = 16;
  double ost_bandwidth_bps = 1.2e9;     // per-OST streaming bandwidth
  double client_bandwidth_bps = 2.8e9;  // node interconnect limit
  double open_latency_s = 8e-4;         // open/close + layout RPCs
  double rpc_latency_s = 5e-5;          // per stripe-boundary RPC
  double mds_service_s = 2e-5;          // metadata service time per client
  std::size_t stripe_size = 1u << 20;
  int stripe_count = 4;
};

class PfsSimulator {
 public:
  explicit PfsSimulator(PfsConfig config = {});

  const PfsConfig& config() const { return config_; }

  struct WriteResult {
    double seconds = 0.0;        // simulated wall time for this client
    std::size_t bytes = 0;
    double effective_bw_bps = 0.0;
  };

  // Writes (or overwrites) a file. `concurrent_clients` models how many
  // clients are hammering the PFS at the same moment (this client
  // included); time reflects the shared-capacity slowdown.
  WriteResult write_file(const std::string& path,
                         std::span<const std::byte> data,
                         int concurrent_clients = 1);

  // Appends `data` to `path`, creating the file when absent. Partial
  // trailing stripes are filled before new stripe units are allocated, so
  // containers can be written incrementally (the streaming compress→write
  // pipeline appends one compressed slab at a time). The open/metadata
  // latency is charged only when the file is created; every append pays
  // per-touched-stripe RPCs plus transfer time.
  WriteResult append_file(const std::string& path,
                          std::span<const std::byte> data,
                          int concurrent_clients = 1);

  // Stripe units an append of `length` bytes to a file holding `offset`
  // bytes touches (one RPC each): the partial trailing unit it fills, even
  // with nothing to add, plus every unit it opens.
  std::size_t append_stripes(std::size_t offset, std::size_t length) const;

  // What appending `length` bytes to a file holding `offset` bytes costs
  // under `concurrent_clients`-way contention, the creation charge aside:
  // one RPC per stripe append_stripes() counts plus transfer time.
  // append_file charges it; the sector plan prices appended sectors with it.
  WriteResult append_price(std::size_t offset, std::size_t length,
                           int concurrent_clients = 1) const;

  // Stateful incremental writer over append_file: remembers whether the
  // open cost has been paid and accumulates bytes/seconds across appends.
  //
  // Registry accounting: the stream counts toward concurrent_writers()
  // only while append() moves its bytes, so an open-but-idle stream never
  // inflates contended pricing for its whole scope.
  class AppendStream {
   public:
    WriteResult append(std::span<const std::byte> data,
                       int concurrent_clients = 1);
    const std::string& path() const { return path_; }
    PfsSimulator& pfs() const { return *pfs_; }
    std::size_t bytes_written() const { return bytes_; }
    double seconds_total() const { return seconds_; }

    AppendStream(AppendStream&&) = default;
    AppendStream(const AppendStream&) = delete;
    AppendStream& operator=(const AppendStream&) = delete;
    AppendStream& operator=(AppendStream&&) = delete;

   private:
    friend class PfsSimulator;
    AppendStream(PfsSimulator* pfs, std::string path)
        : pfs_(pfs), path_(std::move(path)) {}

    PfsSimulator* pfs_;
    std::string path_;
    std::size_t bytes_ = 0;
    double seconds_ = 0.0;
  };

  // Opens (creating or truncating) `path` for incremental writes.
  AppendStream open_append(const std::string& path);

  // Time to read a file back under the same contention model. Priced
  // symmetrically with appends: one open/metadata charge plus a per-stripe
  // RPC for every stripe unit the read touches, plus transfer time.
  WriteResult read_cost(const std::string& path,
                        int concurrent_clients = 1) const;

  // Reassembles the file from its stripes.
  Bytes read_file(const std::string& path) const;

  // A ranged fetch: the extent's bytes plus what the fetch cost.
  struct RangeRead {
    Bytes data;
    WriteResult cost;
  };

  // Fetches bytes [offset, offset + length) of `path` — the read mirror of
  // append_file. The fetch pays a per-touched-stripe RPC plus transfer at
  // the contended bandwidth; `pay_open` additionally charges the
  // open/metadata latency (a fresh open of the file). Throws
  // InvalidArgument when the extent reaches past end of file.
  RangeRead read_range(const std::string& path, std::size_t offset,
                       std::size_t length, int concurrent_clients = 1,
                       bool pay_open = true) const;

  // What fetching bytes [offset, offset + length) costs under
  // `concurrent_clients`-way contention: a per-stripe RPC for every stripe
  // unit the extent touches plus transfer, and with `pay_open` the
  // open/metadata latency. read_range and read_cost charge it; the sector
  // plan prices fetched sectors with it.
  WriteResult read_price(std::size_t offset, std::size_t length,
                         int concurrent_clients = 1,
                         bool pay_open = true) const;

  // Stateful incremental reader over read_range: the open/metadata cost is
  // paid exactly once (on the first fetch), and bytes/seconds accumulate
  // across fetches — the fetch mirror of AppendStream, with the same
  // registry accounting (the stream counts toward concurrent_readers()
  // only while read() moves its bytes).
  class ReadStream {
   public:
    RangeRead read(std::size_t offset, std::size_t length,
                   int concurrent_clients = 1);
    const std::string& path() const { return path_; }
    const PfsSimulator& pfs() const { return *pfs_; }
    // File size when the stream was opened.
    std::size_t size() const { return size_; }
    std::size_t bytes_read() const { return bytes_; }
    double seconds_total() const { return seconds_; }

    ReadStream(ReadStream&&) = default;
    ReadStream(const ReadStream&) = delete;
    ReadStream& operator=(const ReadStream&) = delete;
    ReadStream& operator=(ReadStream&&) = delete;

   private:
    friend class PfsSimulator;
    ReadStream(const PfsSimulator* pfs, std::string path, std::size_t size)
        : pfs_(pfs), path_(std::move(path)), size_(size) {}

    const PfsSimulator* pfs_;
    std::string path_;
    std::size_t size_ = 0;
    bool opened_ = false;
    std::size_t bytes_ = 0;
    double seconds_ = 0.0;
  };

  // Opens `path` for incremental ranged reads. Throws when absent.
  ReadStream open_read(const std::string& path) const;

  bool exists(const std::string& path) const;
  std::size_t file_size(const std::string& path) const;
  void remove(const std::string& path);
  std::vector<std::string> list_files() const;
  // Total bytes resident on each OST (for striping tests / balance checks).
  std::vector<std::size_t> ost_usage() const;

  // Transfer time for `bytes` under `concurrent_clients`-way contention,
  // without storing anything (used for modeled aggregate flows).
  double transfer_seconds(std::size_t bytes, int concurrent_clients) const;

  // --- concurrent-writer registry ------------------------------------------
  //
  // Historically every experiment told the contention model how many
  // clients were writing (`concurrent_clients`), which is only honest while
  // one world owns the file system. When independent (nodes, ranks) worlds
  // batch concurrently as sweep cells, each world registers its writing
  // fleet for its lifetime and asks concurrent_writers() for the *true*
  // number of simultaneously-writing clients across every overlapping
  // world — the count the Fig. 12 contention model should be fed.
  class WriterScope {
   public:
    // Registers `writers` simultaneously-writing clients until destruction.
    explicit WriterScope(PfsSimulator& pfs, int writers = 1);
    ~WriterScope();
    WriterScope(const WriterScope&) = delete;
    WriterScope& operator=(const WriterScope&) = delete;

   private:
    PfsSimulator* pfs_;
    int writers_;
  };

  // Writers registered right now / the high-water mark since construction
  // (or the last reset_writer_peak()).
  int concurrent_writers() const { return writers_.load(); }
  int peak_concurrent_writers() const { return writer_peak_.load(); }
  void reset_writer_peak() { writer_peak_.store(writers_.load()); }

  // Reader registry, symmetric with WriterScope: restart/analysis worlds
  // register their fetching fleets so batched readers can feed the
  // contention model the true simultaneously-reading client count.
  class ReaderScope {
   public:
    explicit ReaderScope(const PfsSimulator& pfs, int readers = 1);
    ~ReaderScope();
    ReaderScope(const ReaderScope&) = delete;
    ReaderScope& operator=(const ReaderScope&) = delete;

   private:
    const PfsSimulator* pfs_;
    int readers_;
  };

  int concurrent_readers() const { return readers_.load(); }
  int peak_concurrent_readers() const { return reader_peak_.load(); }
  void reset_reader_peak() { reader_peak_.store(readers_.load()); }

 private:
  struct StoredFile {
    std::size_t size = 0;
    int stripe_count = 0;
    std::size_t stripe_size = 0;
    int first_ost = 0;
    // stripes[k] = k-th stripe unit, resident on OST
    // (first_ost + k % stripe_count) % num_osts.
    std::vector<Bytes> stripes;
  };

  double effective_bandwidth(int concurrent_clients) const;

  // Registry bookkeeping shared by the scopes: adjust the live count and
  // CAS the high-water mark.
  void register_writers(int n);
  void unregister_writers(int n) { writers_.fetch_sub(n); }
  void register_readers(int n) const;
  void unregister_readers(int n) const { readers_.fetch_sub(n); }

  PfsConfig config_;
  mutable std::mutex mu_;  // guards files_ and next_ost_
  std::map<std::string, StoredFile> files_;
  int next_ost_ = 0;
  std::atomic<int> writers_{0};
  std::atomic<int> writer_peak_{0};
  mutable std::atomic<int> readers_{0};
  mutable std::atomic<int> reader_peak_{0};
};

}  // namespace eblcio
