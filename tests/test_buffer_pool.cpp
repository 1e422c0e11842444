// BufferPool: reuse semantics, thread churn, and the zero-allocation
// steady state of the streamed pipelines that ride on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "codec/huffman.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "io/pfs.h"

namespace eblcio {
namespace {

TEST(BufferPool, AcquireReleaseReusesAllocation) {
  BufferPool pool;
  Bytes a = pool.acquire(1024);
  a.resize(1024);
  const std::byte* ptr = a.data();
  pool.release(std::move(a));

  Bytes b = pool.acquire(512);
  EXPECT_EQ(b.size(), 0u);           // always handed back empty
  EXPECT_GE(b.capacity(), 1024u);    // same allocation recycled
  EXPECT_EQ(b.data(), ptr);

  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.releases, 1u);
}

TEST(BufferPool, BestFitPrefersSmallestCoveringBuffer) {
  BufferPool pool;
  for (std::size_t cap : {4096u, 256u, 1024u}) {
    Bytes b;
    b.reserve(cap);
    pool.release(std::move(b));
  }
  Bytes got = pool.acquire(512);
  EXPECT_GE(got.capacity(), 512u);
  EXPECT_LT(got.capacity(), 4096u);  // 1024 is the best fit, not 4096
}

TEST(BufferPool, EmptyReleaseIsDropped) {
  BufferPool pool;
  pool.release(Bytes());
  EXPECT_EQ(pool.stats().retained_buffers, 0u);
}

TEST(BufferPool, TrimFreesRetainedBuffers) {
  BufferPool pool;
  Bytes b;
  b.reserve(4096);
  pool.release(std::move(b));
  EXPECT_GT(pool.stats().retained_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().retained_buffers, 0u);
  EXPECT_EQ(pool.stats().retained_bytes, 0u);
}

TEST(BufferPool, ThreadChurnStaysConsistent) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kLaps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kLaps; ++i) {
        Bytes b = pool.acquire(64 + static_cast<std::size_t>(t) * 128);
        b.resize(64 + static_cast<std::size_t>(i % 7) * 32,
                 std::byte{static_cast<unsigned char>(t)});
        // Buffers must come back empty regardless of who released them.
        for (std::size_t k = 0; k < b.size(); ++k)
          b[k] = std::byte{static_cast<unsigned char>(i)};
        pool.release(std::move(b));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kThreads) * kLaps);
  EXPECT_EQ(s.releases, static_cast<std::uint64_t>(kThreads) * kLaps);
  EXPECT_LE(s.retained_buffers, 8u * 16u);  // shard caps hold
  // Churning threads over a shared pool must reuse far more than it mints.
  EXPECT_GT(s.hits, s.acquires / 2);
}

TEST(BufferPool, StreamedWritePipelineReachesSteadyStateReuse) {
  // After a first warm-up lap, the streamed write path (compress ->
  // append_zone -> recycle) should serve its slab buffers from the pool:
  // hits strictly increase across subsequent runs.
  const Field field = generate_dataset_dims("NYX", {32, 32, 32}, 3);
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  config.threads = 1;
  // NetCDF stages every chunk through a conversion buffer, and the read
  // pipeline fetches through pooled ranged reads — both pull from the
  // recycled slab blobs.
  config.io_library = "NetCDF";
  StreamConfig stream;
  stream.slabs = 8;

  BufferPool& pool = BufferPool::global();
  pool.reset_stats();
  {
    PfsSimulator pfs;
    (void)run_streamed_compress_write(field, config, pfs, stream);
  }
  const auto warm = pool.stats();
  {
    PfsSimulator pfs;
    const auto rec = run_streamed_compress_write(field, config, pfs, stream);
    (void)run_streamed_read(pfs, rec.path, config, stream);
  }
  const auto second = pool.stats();
  // Second lap: the write path's staging copies and the read path's
  // ranged fetches are served from recycled slab buffers.
  EXPECT_GT(second.hits, warm.hits);
}

TEST(BufferPool, ZoneCompressSteadyStateIsAllocationFree) {
  // The per-zone codec path (bitstream take -> huffman/lz blob -> code
  // stream framing) acquires every working buffer from the pool and
  // releases it once framed. After one warm lap, a serial per-zone
  // compress loop must therefore run with zero fresh pool allocations:
  // every acquire is a hit. (Serial keeps all acquires on one thread, i.e.
  // one shard, so the assertion is exact rather than scheduling-dependent.)
  const Field field = generate_dataset_dims("NYX", {32, 32, 32}, 3);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  // Zones compress at the whole field's absolute bound, as the streamed
  // write's do.
  CompressOptions zone_opt;
  zone_opt.mode = BoundMode::kAbsolute;
  zone_opt.error_bound = absolute_bound_for(field, opt);
  const std::vector<Field> zones = split_slabs(field, 4);
  Compressor& sz3 = compressor("SZ3");

  BufferPool& pool = BufferPool::global();
  const auto lap = [&] {
    std::vector<Bytes> blobs;
    for (const Field& zone : zones)
      blobs.push_back(sz3.compress(zone, zone_opt));
    return blobs;
  };
  const auto recycle = [&](std::vector<Bytes>& blobs) {
    for (Bytes& b : blobs) pool.release(std::move(b));
  };
  std::vector<Bytes> warm = lap();
  recycle(warm);  // zone blobs rejoin the pool for the next lap
  pool.reset_stats();

  std::vector<Bytes> hot = lap();
  const auto s = pool.stats();
  EXPECT_GT(s.acquires, 0u);
  EXPECT_EQ(s.acquires, s.hits);  // steady state: no per-zone allocations
  recycle(hot);
}

TEST(BufferPool, HuffmanEncodeSteadyStateIsAllocationFree) {
  // The hot encoder keeps its histogram/emit scratch in thread_local
  // storage and sizes the output acquire exactly (header bound + payload
  // bits), so a re-encode loop must reach the pool's steady state: after a
  // warm lap, every output-buffer acquire is a hit and nothing else
  // allocates per call.
  Rng rng(2);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& s : syms) {
    const double g = rng.normal() * 12.0;
    s = static_cast<std::uint32_t>(std::clamp(32768.0 + g, 0.0, 65536.0));
  }

  BufferPool& pool = BufferPool::global();
  Bytes warm = huffman_encode(syms, 65537);
  pool.release(std::move(warm));
  pool.reset_stats();

  for (int lap = 0; lap < 16; ++lap) {
    Bytes blob = huffman_encode(syms, 65537);
    pool.release(std::move(blob));
  }
  const auto s = pool.stats();
  EXPECT_GT(s.acquires, 0u);
  EXPECT_EQ(s.acquires, s.hits);  // steady state: no encoder allocations
}

}  // namespace
}  // namespace eblcio
