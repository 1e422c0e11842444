// PFS simulator tests: striping correctness, bandwidth/latency model,
// contention behaviour (the Fig. 12 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "io/pfs.h"

namespace eblcio {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next_below(256));
  return b;
}

TEST(Pfs, WriteReadRoundTrip) {
  PfsSimulator pfs;
  const Bytes data = random_bytes(3u << 20, 1);  // 3 MB: several stripes
  pfs.write_file("/a/b", data, 1);
  EXPECT_TRUE(pfs.exists("/a/b"));
  EXPECT_EQ(pfs.file_size("/a/b"), data.size());
  EXPECT_EQ(pfs.read_file("/a/b"), data);
}

TEST(Pfs, EmptyFile) {
  PfsSimulator pfs;
  pfs.write_file("/empty", {}, 1);
  EXPECT_EQ(pfs.read_file("/empty").size(), 0u);
}

TEST(Pfs, OverwriteReplacesContent) {
  PfsSimulator pfs;
  pfs.write_file("/f", random_bytes(1000, 2), 1);
  const Bytes second = random_bytes(500, 3);
  pfs.write_file("/f", second, 1);
  EXPECT_EQ(pfs.read_file("/f"), second);
}

TEST(Pfs, MissingFileThrows) {
  PfsSimulator pfs;
  EXPECT_THROW(pfs.read_file("/nope"), InvalidArgument);
  EXPECT_THROW(pfs.file_size("/nope"), InvalidArgument);
}

TEST(Pfs, RemoveAndList) {
  PfsSimulator pfs;
  pfs.write_file("/x", random_bytes(10, 4), 1);
  pfs.write_file("/y", random_bytes(10, 5), 1);
  EXPECT_EQ(pfs.list_files().size(), 2u);
  pfs.remove("/x");
  EXPECT_FALSE(pfs.exists("/x"));
  EXPECT_EQ(pfs.list_files().size(), 1u);
}

TEST(Pfs, StripesSpreadAcrossOsts) {
  PfsConfig cfg;
  cfg.stripe_count = 4;
  cfg.num_osts = 8;
  PfsSimulator pfs(cfg);
  pfs.write_file("/big", random_bytes(8u << 20, 6), 1);  // 8 stripes
  const auto usage = pfs.ost_usage();
  int used = 0;
  for (auto u : usage)
    if (u > 0) ++used;
  EXPECT_EQ(used, 4);  // exactly stripe_count OSTs carry data
}

TEST(Pfs, WriteTimeScalesWithBytes) {
  PfsSimulator pfs;
  const auto small = pfs.write_file("/s", random_bytes(1u << 20, 7), 1);
  const auto large = pfs.write_file("/l", random_bytes(64u << 20, 8), 1);
  EXPECT_GT(large.seconds, small.seconds * 10);
}

TEST(Pfs, SmallWritesDominatedByLatency) {
  PfsSimulator pfs;
  const auto tiny = pfs.write_file("/t", random_bytes(1024, 9), 1);
  EXPECT_GE(tiny.seconds, pfs.config().open_latency_s);
  EXPECT_LT(tiny.seconds, pfs.config().open_latency_s * 3);
}

TEST(Pfs, ContentionReducesPerClientBandwidth) {
  PfsSimulator pfs;
  double prev_bw = 1e18;
  for (int clients : {1, 8, 64, 512}) {
    const double t = pfs.transfer_seconds(32u << 20, clients);
    const double bw = (32.0 * (1u << 20)) / t;
    EXPECT_LT(bw, prev_bw * 1.001);
    prev_bw = bw;
  }
}

TEST(Pfs, AggregateCapacitySaturates) {
  // The Fig. 12 jump: once clients * demand exceeds aggregate PFS
  // bandwidth, per-client time grows ~linearly with client count.
  PfsSimulator pfs;
  const std::size_t bytes = 64u << 20;
  const double t256 = pfs.transfer_seconds(bytes, 256);
  const double t512 = pfs.transfer_seconds(bytes, 512);
  EXPECT_GT(t512, t256 * 1.8);  // near-linear growth in the saturated regime
  // While 1 -> 2 clients is barely affected (client-link bound).
  const double t1 = pfs.transfer_seconds(bytes, 1);
  const double t2 = pfs.transfer_seconds(bytes, 2);
  EXPECT_LT(t2, t1 * 1.3);
}

TEST(Pfs, ReadCostMatchesContentionModel) {
  PfsSimulator pfs;
  pfs.write_file("/r", random_bytes(8u << 20, 10), 1);
  const auto solo = pfs.read_cost("/r", 1);
  const auto busy = pfs.read_cost("/r", 256);
  EXPECT_GT(busy.seconds, solo.seconds);
  EXPECT_EQ(solo.bytes, 8u << 20);
}

// --- ranged reads (the fetch mirror of append_file) -------------------------

TEST(PfsRead, RangeMatchesFileContent) {
  PfsSimulator pfs;
  const Bytes data = random_bytes(3u << 20, 11);  // spans several stripes
  pfs.write_file("/rr", data, 1);
  // Extents chosen to hit: inside one stripe, across a stripe boundary,
  // the file head, and the exact tail.
  const std::size_t stripe = pfs.config().stripe_size;
  const std::pair<std::size_t, std::size_t> extents[] = {
      {100, 5000},
      {stripe - 10, 20},
      {0, stripe},
      {data.size() - 777, 777},
  };
  for (const auto& [off, len] : extents) {
    const auto r = pfs.read_range("/rr", off, len);
    ASSERT_EQ(r.data.size(), len);
    EXPECT_TRUE(std::equal(r.data.begin(), r.data.end(),
                           data.begin() + off));
    EXPECT_EQ(r.cost.bytes, len);
    EXPECT_GT(r.cost.seconds, 0.0);
  }
}

TEST(PfsRead, RangePastEofThrows) {
  PfsSimulator pfs;
  pfs.write_file("/rr", random_bytes(1000, 12), 1);
  EXPECT_THROW(pfs.read_range("/rr", 500, 501), InvalidArgument);
  EXPECT_THROW(pfs.read_range("/rr", 1001, 0), InvalidArgument);
  // Overflow-safe: offset near SIZE_MAX must not wrap past the check.
  EXPECT_THROW(pfs.read_range("/rr", ~std::size_t{0} - 4, 10),
               InvalidArgument);
  EXPECT_THROW(pfs.read_range("/missing", 0, 1), InvalidArgument);
}

TEST(PfsRead, PricingIsSymmetricWithAppends) {
  // Reads pay open/metadata once per open and a per-touched-stripe RPC —
  // the same mechanism appends pay — instead of a flat whole-file cost.
  PfsSimulator pfs;
  const std::size_t stripe = pfs.config().stripe_size;
  pfs.write_file("/sym", random_bytes(4 * stripe, 13), 1);

  // An opened ranged fetch within one stripe: one RPC + transfer.
  const auto one = pfs.read_range("/sym", 10, 1000, 1, /*pay_open=*/false);
  EXPECT_NEAR(one.cost.seconds,
              pfs.config().rpc_latency_s + 1000.0 / one.cost.effective_bw_bps,
              1e-12);
  // The same extent across a stripe boundary: two RPCs.
  const auto two =
      pfs.read_range("/sym", stripe - 500, 1000, 1, /*pay_open=*/false);
  EXPECT_NEAR(two.cost.seconds - one.cost.seconds, pfs.config().rpc_latency_s,
              1e-12);
  // A fresh open adds exactly the open/metadata charge.
  const auto opened = pfs.read_range("/sym", 10, 1000, 1, /*pay_open=*/true);
  EXPECT_NEAR(opened.cost.seconds - one.cost.seconds,
              pfs.config().open_latency_s + pfs.config().mds_service_s,
              1e-12);
}

TEST(PfsRead, StreamPaysOpenOnce) {
  PfsSimulator pfs;
  pfs.write_file("/st", random_bytes(1u << 20, 14), 1);
  auto stream = pfs.open_read("/st");
  EXPECT_EQ(stream.size(), 1u << 20);
  const auto first = stream.read(0, 4096);
  const auto second = stream.read(4096, 4096);
  // Identical extents, but only the first fetch paid the open.
  EXPECT_GT(first.cost.seconds, second.cost.seconds);
  EXPECT_NEAR(first.cost.seconds - second.cost.seconds,
              pfs.config().open_latency_s + pfs.config().mds_service_s,
              1e-12);
  EXPECT_EQ(stream.bytes_read(), 8192u);
  EXPECT_NEAR(stream.seconds_total(), first.cost.seconds + second.cost.seconds,
              1e-12);
  EXPECT_THROW(pfs.open_read("/missing"), InvalidArgument);
}

TEST(PfsRead, WholeFileReadCostCountsStripes) {
  // read_cost = open + one RPC per stripe + transfer, matching what the
  // stripes-touched accounting of an equivalent append sequence paid.
  PfsSimulator pfs;
  const std::size_t stripe = pfs.config().stripe_size;
  pfs.write_file("/wf", random_bytes(5 * stripe + 100, 15), 1);
  const auto cost = pfs.read_cost("/wf", 1);
  const double expected =
      pfs.config().open_latency_s + pfs.config().mds_service_s +
      6 * pfs.config().rpc_latency_s +
      static_cast<double>(5 * stripe + 100) / cost.effective_bw_bps;
  EXPECT_NEAR(cost.seconds, expected, 1e-12);
}

TEST(PfsRead, ReaderRegistryTracksScopes) {
  PfsSimulator pfs;
  EXPECT_EQ(pfs.concurrent_readers(), 0);
  {
    PfsSimulator::ReaderScope a(pfs, 3);
    EXPECT_EQ(pfs.concurrent_readers(), 3);
    {
      PfsSimulator::ReaderScope b(pfs, 2);
      EXPECT_EQ(pfs.concurrent_readers(), 5);
    }
    EXPECT_EQ(pfs.concurrent_readers(), 3);
  }
  EXPECT_EQ(pfs.concurrent_readers(), 0);
  EXPECT_EQ(pfs.peak_concurrent_readers(), 5);
  pfs.reset_reader_peak();
  EXPECT_EQ(pfs.peak_concurrent_readers(), 0);
  EXPECT_THROW(PfsSimulator::ReaderScope(pfs, 0), InvalidArgument);
}

TEST(PfsRegistry, StreamsCountOnlyWhileTheirBytesMove) {
  // Open-but-idle streams never register; append() and read() register
  // transiently, so the peaks see each stream once and the live counts
  // return to zero after every transfer.
  PfsSimulator pfs;
  pfs.write_file("/idle", random_bytes(10000, 1));
  auto ws = pfs.open_append("/idle2");
  auto rs = pfs.open_read("/idle");
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  EXPECT_EQ(pfs.concurrent_readers(), 0);
  pfs.reset_writer_peak();
  pfs.reset_reader_peak();
  EXPECT_EQ(pfs.peak_concurrent_writers(), 0);
  EXPECT_EQ(pfs.peak_concurrent_readers(), 0);
  for (int i = 0; i < 3; ++i) {
    ws.append(random_bytes(50000, 2 + i));
    EXPECT_EQ(pfs.concurrent_writers(), 0);
    const auto fetched = rs.read(1000 * i, 1000);
    EXPECT_EQ(fetched.data.size(), 1000u);
    EXPECT_EQ(pfs.concurrent_readers(), 0);
  }
  EXPECT_EQ(pfs.peak_concurrent_writers(), 1);
  EXPECT_EQ(pfs.peak_concurrent_readers(), 1);
  // A failing fetch unregisters too.
  EXPECT_THROW(rs.read(9000, 2000), InvalidArgument);
  EXPECT_EQ(pfs.concurrent_readers(), 0);
}

TEST(PfsPrice, AppendAndReadPricesAreWhatTheTransfersCharge) {
  // append_file and read_range charge exactly the const pricing helpers,
  // which is what lets the sector plan price sectors without moving them.
  PfsConfig pc;
  pc.stripe_size = 4096;
  PfsSimulator pfs(pc);
  auto ws = pfs.open_append("/p");
  const std::size_t lengths[] = {137, 0, 5000, 4096, 1, 20000};
  std::size_t offset = 0;
  for (const std::size_t n : lengths) {
    const auto r = ws.append(random_bytes(n, n), 3);
    auto want = pfs.append_price(offset, n, 3);
    if (offset == 0)
      want.seconds += pc.open_latency_s + 3 * pc.mds_service_s;
    EXPECT_EQ(r.seconds, want.seconds) << offset;
    EXPECT_EQ(r.effective_bw_bps, want.effective_bw_bps);
    offset += n;
  }
  offset = 0;
  for (const std::size_t n : lengths) {
    for (const bool open : {false, true}) {
      const auto got = pfs.read_range("/p", offset, n, 5, open);
      const auto want = pfs.read_price(offset, n, 5, open);
      EXPECT_EQ(got.cost.seconds, want.seconds) << offset;
      EXPECT_EQ(got.cost.bytes, n);
    }
    offset += n;
  }
  EXPECT_EQ(pfs.read_cost("/p", 2).seconds,
            pfs.read_price(0, offset, 2, true).seconds);
}

TEST(PfsAppend, AppendStripesIsWhatAppendFileCharges) {
  // Random appends onto files of random size, with empty appends and
  // stripe-aligned offsets mixed in: append_file charges one RPC per
  // stripe append_stripes counts, and that count is every stripe unit the
  // appended bytes land in, plus the partial trailing unit an empty append
  // still touches.
  PfsConfig pc;
  pc.stripe_size = 4096;
  std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, 0}, {0, 1}, {0, 4096}, {4096, 0}, {4096, 1}, {4095, 0},
      {4095, 1}, {4095, 2}, {8192, 8192}, {100, 0}};
  Rng rng(21);
  for (int t = 0; t < 300; ++t) {
    const std::size_t offset = rng.next_below(3) == 0
                                   ? pc.stripe_size * rng.next_below(5)
                                   : rng.next_below(5 * pc.stripe_size);
    const std::size_t len =
        rng.next_below(4) == 0 ? 0 : rng.next_below(5 * pc.stripe_size);
    cases.emplace_back(offset, len);
  }
  for (const auto& [offset, len] : cases) {
    std::size_t touched = 0;
    for (std::size_t k = 0; k * pc.stripe_size <= offset + len; ++k) {
      const std::size_t lo = k * pc.stripe_size, hi = lo + pc.stripe_size;
      touched += len > 0 ? lo < offset + len && offset < hi
                         : lo < offset && offset < hi;
    }
    PfsSimulator pfs(pc);
    pfs.append_file("/f", random_bytes(offset, 5));  // creation pays open
    const auto r = pfs.append_file("/f", random_bytes(len, 6));
    EXPECT_EQ(pfs.append_stripes(offset, len), touched) << offset << "+" << len;
    EXPECT_EQ(r.seconds, static_cast<double>(touched) * pc.rpc_latency_s +
                             static_cast<double>(len) / r.effective_bw_bps)
        << offset << "+" << len;
  }
}

TEST(Pfs, RejectsBadConfig) {
  PfsConfig cfg;
  cfg.stripe_count = 20;
  cfg.num_osts = 8;
  EXPECT_THROW(PfsSimulator{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace eblcio
