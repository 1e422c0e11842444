// Sector-ring transport tests: file-byte parity with the blocking append
// path, credit exhaustion and recovery, per-channel FIFO retirement,
// in-flight-only registry accounting, contended pricing monotonicity,
// concurrent N-writer × M-reader interleavings, an await on a pool thread
// that must not grow the pool, and error-path hygiene (a mid-stream wire
// failure must release every credit and pooled sector buffer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "core/pipeline.h"
#include "io/transport.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_3d;

bool bytes_equal(const Field& a, const Field& b) {
  const auto sa = a.bytes();
  const auto sb = b.bytes();
  return sa.size() == sb.size() &&
         std::equal(sa.begin(), sa.end(), sb.begin());
}

Bytes pattern_bytes(std::size_t n, unsigned seed) {
  Bytes b(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    b[i] = static_cast<std::byte>(s >> 24);
  }
  return b;
}

// Stages `messages` through a SectorWriter and returns the file content.
Bytes write_through_transport(PfsSimulator& pfs, const std::string& path,
                              const std::vector<Bytes>& messages,
                              const TransportConfig& config,
                              TransportStats* stats_out = nullptr,
                              std::vector<SectorRecord>* records_out = nullptr) {
  auto stream = pfs.open_append(path);
  {
    SectorWriter writer(stream, config);
    for (std::size_t m = 0; m < messages.size(); ++m)
      writer.stage(m, messages[m]);
    writer.drain();
    EXPECT_EQ(writer.inflight(), 0);
    if (stats_out) *stats_out = writer.stats();
    if (records_out) *records_out = writer.records();
  }
  return pfs.read_file(path);
}

TEST(SectorWriterTest, FileBytesIdenticalToBlockingAppends) {
  std::vector<Bytes> messages;
  for (unsigned m = 0; m < 7; ++m)
    messages.push_back(pattern_bytes(40000 + m * 17001, m));

  PfsSimulator blocking_pfs;
  auto blocking = blocking_pfs.open_append("/pfs/blocking");
  for (const auto& msg : messages) blocking.append(msg);

  TransportConfig config;
  config.sector_bytes = 16u << 10;
  PfsSimulator pfs;
  const Bytes got =
      write_through_transport(pfs, "/pfs/transport", messages, config);
  EXPECT_EQ(got, blocking_pfs.read_file("/pfs/blocking"));
}

TEST(SectorWriterTest, CreditExhaustionStallsAndRecovers) {
  // Deterministic exhaustion: a single-worker executor whose one worker is
  // pinned by a spin task, so the drainer cannot retire sector 0 while the
  // producer stages sector 1 — with one channel and one credit the
  // producer MUST record a credit stall. A watcher releases the worker
  // once the stall registers, and the write must then complete exactly.
  Executor ex(1);
  std::atomic<bool> release{false};
  TaskGroup blocker(ex);
  blocker.run([&] {
    while (!release.load()) std::this_thread::yield();
  });

  TransportConfig config;
  config.sector_bytes = 4u << 10;
  config.ring_depth = 1;
  config.channels = 1;
  const std::vector<Bytes> messages{pattern_bytes(100000, 3),
                                    pattern_bytes(120000, 4)};
  PfsSimulator pfs;
  auto stream = pfs.open_append("/pfs/tight");
  TransportStats stats;
  {
    SectorWriter writer(stream, config, ex);
    std::thread releaser([&] {
      while (writer.stats().credit_stalls == 0) std::this_thread::yield();
      release.store(true);
    });
    for (std::size_t m = 0; m < messages.size(); ++m)
      writer.stage(m, messages[m]);
    writer.drain();
    releaser.join();
    stats = writer.stats();
    EXPECT_EQ(writer.inflight(), 0);
  }
  blocker.wait();

  Bytes whole;
  for (const auto& m : messages)
    whole.insert(whole.end(), m.begin(), m.end());
  EXPECT_EQ(pfs.read_file("/pfs/tight"), whole);
  EXPECT_EQ(stats.sectors, (100000 + 4095) / 4096 + (120000 + 4095) / 4096);
  EXPECT_GT(stats.credit_stalls, 0u);
}

TEST(SectorWriterTest, RetirementIsPerChannelFifoInStagingOrder) {
  TransportConfig config;
  config.sector_bytes = 8u << 10;
  config.ring_depth = 3;
  config.channels = 3;
  std::vector<Bytes> messages;
  for (unsigned m = 0; m < 5; ++m)
    messages.push_back(pattern_bytes(60000 + 1234 * m, m + 9));
  PfsSimulator pfs;
  std::vector<SectorRecord> records;
  write_through_transport(pfs, "/pfs/fifo", messages, config, nullptr,
                          &records);
  ASSERT_FALSE(records.empty());
  // Global service order equals staging order (that is what makes the file
  // bytes blocking-identical), hence per-channel ordinals are FIFO too.
  std::map<int, std::size_t> last_by_channel;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sector, i);
    EXPECT_EQ(records[i].channel,
              static_cast<int>(i % static_cast<std::size_t>(config.channels)));
    auto it = last_by_channel.find(records[i].channel);
    if (it != last_by_channel.end()) EXPECT_LT(it->second, records[i].sector);
    last_by_channel[records[i].channel] = records[i].sector;
  }
}

TEST(SectorReaderTest, AssemblesMessagesAndMatchesFile) {
  PfsSimulator pfs;
  const Bytes content = pattern_bytes(300000, 42);
  pfs.write_file("/pfs/src", content);

  TransportConfig config;
  config.sector_bytes = 32u << 10;
  auto stream = pfs.open_read("/pfs/src");
  SectorReader reader(stream, config);
  const std::size_t h0 = reader.request(0, 100000);
  const std::size_t h1 = reader.request(100000, 150000);
  const std::size_t h2 = reader.request(250000, 50000);
  double wire1 = 0.0;
  Bytes m1 = reader.await(h1, &wire1);
  Bytes m0 = reader.await(h0);
  Bytes m2 = reader.await(h2);
  EXPECT_GT(wire1, 0.0);
  EXPECT_TRUE(std::equal(m0.begin(), m0.end(), content.begin()));
  EXPECT_TRUE(std::equal(m1.begin(), m1.end(), content.begin() + 100000));
  EXPECT_TRUE(std::equal(m2.begin(), m2.end(), content.begin() + 250000));
  EXPECT_EQ(reader.inflight(), 0);
  BufferPool::global().release(std::move(m0));
  BufferPool::global().release(std::move(m1));
  BufferPool::global().release(std::move(m2));
}

TEST(SectorReaderTest, AwaitOnTheOnlyPoolWorkerRunsTheDrainerItself) {
  // A codec lane awaits its chunk on a pool thread. On a one-worker pool the
  // drainer task queues behind the lane's own task, so the await must run
  // it inline (a help run) instead of growing the pool by a thread.
  PfsSimulator pfs;
  const Bytes content = pattern_bytes(200000, 7);
  pfs.write_file("/pfs/lane", content);
  TransportConfig config;  // 4 sectors, within the 8 credits: no stall
  config.sector_bytes = 64u << 10;

  Executor ex(1);
  Bytes got;
  int workers_during_await = 0;
  std::atomic<bool> done{false};
  TaskGroup lane(ex);
  lane.run([&] {
    auto stream = pfs.open_read("/pfs/lane");
    SectorReader reader(stream, config, ex);
    got = reader.await(reader.request(0, content.size()));
    workers_during_await = ex.stats().workers;
    done.store(true);
  });
  // Spin rather than wait(): a waiting test thread would take the lane task
  // and run it off the pool.
  while (!done.load()) std::this_thread::yield();
  const std::uint64_t help_runs = ex.stats().help_runs;
  lane.wait();
  EXPECT_EQ(got, content);
  EXPECT_EQ(workers_during_await, 1);
  EXPECT_EQ(help_runs, 1u);  // the drainer, run by the awaiting lane
  BufferPool::global().release(std::move(got));
}

TEST(SectorTransportTest, IdleDrainsOnTheOnlyPoolWorkerDoNotGrowThePool) {
  // A drain with nothing in flight returns at once. It must not declare a
  // BlockingScope, which would spawn a replacement worker for a wait that
  // never happens (and retire it right after).
  PfsSimulator pfs;
  pfs.write_file("/pfs/idle-read", pattern_bytes(1000, 5));
  Executor ex(1);
  int peak_workers = 0;
  std::atomic<bool> done{false};
  TaskGroup task(ex);
  task.run([&] {
    auto ws = pfs.open_append("/pfs/idle-write");
    auto rs = pfs.open_read("/pfs/idle-read");
    SectorWriter writer(ws, TransportConfig{}, ex);
    SectorReader reader(rs, TransportConfig{}, ex);
    for (int i = 0; i < 16; ++i) {
      writer.drain();
      peak_workers = std::max(peak_workers, ex.stats().workers);
      reader.drain();
      peak_workers = std::max(peak_workers, ex.stats().workers);
    }
    done.store(true);
  });
  // Spin rather than wait(): a waiting test thread would take the task and
  // run it off the pool.
  while (!done.load()) std::this_thread::yield();
  task.wait();
  EXPECT_EQ(peak_workers, 1);
}

TEST(SectorTransportTest, RegistryCountsOnlyInFlightOccupancy) {
  PfsSimulator pfs;
  pfs.write_file("/pfs/idle", pattern_bytes(10000, 1));

  // Open-but-idle streams must not register.
  auto ws = pfs.open_append("/pfs/idle2");
  auto rs = pfs.open_read("/pfs/idle");
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  EXPECT_EQ(pfs.concurrent_readers(), 0);

  // Idle endpoints must not register either; traffic must have registered
  // at serve time (visible via the peak counters).
  pfs.reset_writer_peak();
  pfs.reset_reader_peak();
  {
    SectorWriter writer(ws, TransportConfig{});
    SectorReader reader(rs, TransportConfig{});
    EXPECT_EQ(pfs.concurrent_writers(), 0);
    EXPECT_EQ(pfs.concurrent_readers(), 0);
    writer.stage(0, pattern_bytes(50000, 2));
    writer.drain();
    Bytes got = reader.await(reader.request(0, 10000));
    BufferPool::global().release(std::move(got));
  }
  EXPECT_EQ(pfs.peak_concurrent_writers(), 1);
  EXPECT_EQ(pfs.peak_concurrent_readers(), 1);
  // Everything retired: the registries are empty again.
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  EXPECT_EQ(pfs.concurrent_readers(), 0);
}

TEST(SectorTransportTest, ContendedPricingMonotoneInOccupancy) {
  // The same sector traffic priced under growing registered fleets must
  // never get cheaper: clients and summed wire seconds are monotone.
  const std::vector<Bytes> messages{pattern_bytes(200000, 5),
                                    pattern_bytes(180000, 6)};
  TransportConfig config;
  config.sector_bytes = 16u << 10;
  double prev_wire = 0.0;
  int prev_clients = 0;
  for (int fleet : {0, 3, 9}) {
    PfsSimulator pfs;
    std::optional<PfsSimulator::WriterScope> scope;
    if (fleet > 0) scope.emplace(pfs, fleet);
    std::vector<SectorRecord> records;
    write_through_transport(pfs, "/pfs/fleet", messages, config, nullptr,
                            &records);
    double wire = 0.0;
    int clients = 0;
    for (const auto& r : records) {
      wire += r.rpc_s + r.xfer_s;
      clients = std::max(clients, r.clients);
    }
    EXPECT_EQ(clients, fleet + 1);  // fleet + this engaged stream
    EXPECT_GE(wire, prev_wire);
    EXPECT_GT(clients, prev_clients);
    prev_wire = wire;
    prev_clients = clients;
  }
}

TEST(SectorTransportTest, ConcurrentWritersAndReadersStayCoherent) {
  // N writer threads and M reader threads share one PFS, each moving its
  // own file through its own endpoint. Every byte must land/read exactly,
  // and the pooled sector buffers must balance out.
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  PfsSimulator pfs;
  std::vector<Bytes> sources(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    sources[r] = pattern_bytes(250000 + 30000 * r, 100 + r);
    pfs.write_file("/pfs/source" + std::to_string(r), sources[r]);
  }

  TransportConfig config;
  config.sector_bytes = 16u << 10;
  const auto pool_before = BufferPool::global().stats();

  std::vector<std::thread> threads;
  std::vector<Bytes> expected(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (unsigned m = 0; m < 4; ++m) {
      const Bytes msg = pattern_bytes(90000 + 7000 * m, w * 10 + m);
      expected[w].insert(expected[w].end(), msg.begin(), msg.end());
    }
  }
  std::vector<Bytes> read_back(kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto stream = pfs.open_append("/pfs/out" + std::to_string(w));
      SectorWriter writer(stream, config);
      std::size_t off = 0;
      for (unsigned m = 0; m < 4; ++m) {
        const std::size_t len = 90000 + 7000 * m;
        writer.stage(m, std::span<const std::byte>(expected[w]).subspan(
                            off, len));
        off += len;
      }
      writer.drain();
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto stream = pfs.open_read("/pfs/source" + std::to_string(r));
      SectorReader reader(stream, config);
      std::vector<std::size_t> handles;
      const std::size_t half = sources[r].size() / 2;
      handles.push_back(reader.request(0, half));
      handles.push_back(reader.request(half, sources[r].size() - half));
      for (std::size_t h : handles) {
        Bytes part = reader.await(h);
        read_back[r].insert(read_back[r].end(), part.begin(), part.end());
        BufferPool::global().release(std::move(part));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int w = 0; w < kWriters; ++w)
    EXPECT_EQ(pfs.read_file("/pfs/out" + std::to_string(w)), expected[w]);
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(read_back[r], sources[r]);
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  EXPECT_EQ(pfs.concurrent_readers(), 0);
  const auto pool_after = BufferPool::global().stats();
  EXPECT_EQ(pool_after.acquires - pool_before.acquires,
            pool_after.releases - pool_before.releases);
}

TEST(SectorTransportTest, MidStreamErrorReleasesCreditsAndBuffers) {
  PfsSimulator pfs;
  pfs.write_file("/pfs/short", pattern_bytes(50000, 8));
  const auto pool_before = BufferPool::global().stats();
  {
    auto stream = pfs.open_read("/pfs/short");
    TransportConfig config;
    config.sector_bytes = 8u << 10;
    SectorReader reader(stream, config);
    const std::size_t good = reader.request(0, 30000);
    // Past-EOF extent: the drainer's ranged fetch throws mid-message. The
    // error surfaces from request() (when the drainer races ahead and
    // poisons the endpoint while sectors are still staging) or from
    // await() — either way it must be the wire error, and the endpoint
    // must come out with no credits or descriptors held.
    bool threw = false;
    try {
      reader.await(reader.request(30000, 40000));
    } catch (const InvalidArgument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(reader.inflight(), 0);
    // The earlier message finished assembling before the failure (sectors
    // serve in staging order) and stays redeemable.
    Bytes ok = reader.await(good);
    EXPECT_EQ(ok.size(), 30000u);
    BufferPool::global().release(std::move(ok));
  }
  EXPECT_EQ(pfs.concurrent_readers(), 0);
  const auto pool_after = BufferPool::global().stats();
  EXPECT_EQ(pool_after.acquires - pool_before.acquires,
            pool_after.releases - pool_before.releases);
}

TEST(SectorTransportTest, StreamedWriteContainerBitIdenticalToBlocking) {
  // The tentpole invariant end to end: the transported pipeline must land
  // byte-identical containers vs the blocking path, and both must read
  // back to the exact serial-reference field.
  const Field field = smooth_field_3d(24);
  PipelineConfig config;
  config.codec = "SZx";
  config.error_bound = 1e-3;
  config.io_library = "HDF5";

  StreamConfig transported;
  transported.slabs = 6;
  transported.use_transport = true;
  transported.transport.sector_bytes = 4u << 10;
  StreamConfig blocking = transported;
  blocking.use_transport = false;

  PfsSimulator pfs_a, pfs_b;
  const auto rec_a =
      run_streamed_compress_write(field, config, pfs_a, transported);
  const auto rec_b =
      run_streamed_compress_write(field, config, pfs_b, blocking);
  EXPECT_GT(rec_a.transport.sectors, 0u);
  EXPECT_EQ(rec_b.transport.sectors, 0u);
  EXPECT_EQ(rec_b.blocking_total_s, rec_b.streamed_total_s);
  EXPECT_GT(rec_a.blocking_total_s, 0.0);
  EXPECT_EQ(pfs_a.read_file(rec_a.path), pfs_b.read_file(rec_b.path));

  const Field ref = read_chunked_field(pfs_a, rec_a.path, config.io_library);
  const auto read_rec = run_streamed_read(pfs_a, rec_a.path, config,
                                          transported);
  EXPECT_TRUE(bytes_equal(read_rec.field, ref));
  EXPECT_GT(read_rec.transport.sectors, 0u);
}

}  // namespace
}  // namespace eblcio
