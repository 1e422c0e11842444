// Sector transport tests: the sector plan's split and channel
// assignment, config validation, contended pricing monotone in
// occupancy, byte parity of transported and blocking streamed containers,
// and pins of the planned records and of a transported pipeline's
// modeled columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

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

// The client count the streamed pipelines price a message at: every
// registered writer and reader plus the moving stream itself.
int self_inclusive(const PfsSimulator& pfs) {
  return pfs.concurrent_writers() + pfs.concurrent_readers() + 1;
}

TEST(SectorPlan, SplitsMessagesRoundRobinInStreamOrder) {
  PfsSimulator pfs;
  TransportConfig config;
  config.sector_bytes = 8u << 10;
  config.channels = 3;
  const std::vector<std::size_t> sizes = {60000, 0, 8192, 8193, 1};
  std::vector<WireMessage> messages;
  std::size_t offset = 100;
  for (const std::size_t n : sizes) {
    messages.push_back({offset, n, 1});
    offset += n;
  }
  for (const SectorOp op : {SectorOp::kAppend, SectorOp::kFetch}) {
    const auto records = plan_sectors(pfs, config, op, messages);
    std::vector<std::size_t> bytes(sizes.size(), 0), count(sizes.size(), 0);
    std::size_t last_message = 0;
    for (std::size_t k = 0; k < records.size(); ++k) {
      const SectorRecord& r = records[k];
      EXPECT_EQ(r.sector, k);
      EXPECT_EQ(r.channel, static_cast<int>(k % 3));
      ASSERT_LT(r.message, sizes.size());
      EXPECT_GE(r.message, last_message);  // messages in order, contiguous
      last_message = r.message;
      EXPECT_LE(r.bytes, config.sector_bytes);
      EXPECT_GE(r.rpc_s, 0.0);
      bytes[r.message] += r.bytes;
      ++count[r.message];
    }
    for (std::size_t m = 0; m < sizes.size(); ++m) {
      EXPECT_EQ(bytes[m], sizes[m]) << m;
      // An empty message still takes one (empty) sector.
      EXPECT_EQ(count[m],
                std::max<std::size_t>(1, (sizes[m] + 8191) / 8192))
          << m;
    }
  }
  EXPECT_TRUE(plan_sectors(pfs, config, SectorOp::kAppend, {}).empty());
}

TEST(SectorPlan, RejectsInvalidConfigs) {
  PfsSimulator pfs;
  const std::vector<WireMessage> messages = {{0, 100, 1}};
  for (const TransportConfig bad :
       {TransportConfig{0, 4, 2}, TransportConfig{256, 0, 2},
        TransportConfig{256, 4, 0}})
    EXPECT_THROW(plan_sectors(pfs, bad, SectorOp::kAppend, messages),
                 InvalidArgument);
}

TEST(SectorPlan, ContendedPricingMonotoneInOccupancy) {
  // The same sector traffic priced under growing registered fleets must
  // never get cheaper: clients and summed wire seconds are monotone.
  TransportConfig config;
  config.sector_bytes = 16u << 10;
  for (const SectorOp op : {SectorOp::kAppend, SectorOp::kFetch}) {
    double prev_wire = 0.0;
    int prev_clients = 0;
    for (int fleet : {0, 3, 9}) {
      PfsSimulator pfs;
      std::optional<PfsSimulator::WriterScope> scope;
      if (fleet > 0) scope.emplace(pfs, fleet);
      const int clients = self_inclusive(pfs);
      const std::vector<WireMessage> messages = {{0, 200000, clients},
                                                 {200000, 180000, clients}};
      double wire = 0.0;
      int seen = 0;
      for (const auto& r : plan_sectors(pfs, config, op, messages)) {
        wire += r.rpc_s + r.xfer_s;
        seen = std::max(seen, r.clients);
      }
      EXPECT_EQ(seen, fleet + 1);  // fleet + this moving stream
      EXPECT_GE(wire, prev_wire);
      EXPECT_GT(seen, prev_clients);
      prev_wire = wire;
      prev_clients = seen;
    }
  }
}

TEST(SectorTransportTest, StreamedWriteContainerBitIdenticalToBlocking) {
  // End to end: the transported pipeline must land byte-identical
  // containers vs the blocking path, and both must read back to the exact
  // serial-reference field.
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

// --- Pins ------------------------------------------------------------------
//
// The transport's records are the model's only input from the wire, so
// they are pinned bit for bit: every sector's message, ordinal, channel,
// bytes, clients, and its rpc_s/xfer_s split rendered as hex floats, over
// messages that follow a 137-byte header on a PFS with 32 KiB stripes.
// Each configuration pins its record count and the FNV-1a 64 of its
// rendered records; one configuration is also spelled out row by row.

constexpr std::size_t kPinHeader = 137;
constexpr std::size_t kPinMessages[] = {0, 1, 40000, 65536, 65537, 300001};

std::string render_record(const SectorRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu %zu %d %zu %d %a %a\n", r.message,
                r.sector, r.channel, r.bytes, r.clients, r.rpc_s, r.xfer_s);
  return buf;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The planned records of the pinned messages appended (or, with `fetch`,
// fetched back), with `fleet` other writers registered.
std::vector<SectorRecord> pin_records(bool fetch, std::size_t sector_kb,
                                      int channels, int fleet) {
  PfsConfig pc;
  pc.stripe_size = 32u << 10;
  PfsSimulator pfs(pc);
  std::optional<PfsSimulator::WriterScope> scope;
  if (fleet > 0) scope.emplace(pfs, fleet);
  TransportConfig config;
  config.sector_bytes = sector_kb << 10;
  config.channels = channels;
  std::vector<WireMessage> messages;
  std::size_t offset = kPinHeader;
  for (const std::size_t n : kPinMessages) {
    messages.push_back({offset, n, self_inclusive(pfs)});
    offset += n;
  }
  return plan_sectors(pfs, config, fetch ? SectorOp::kFetch : SectorOp::kAppend,
                      messages);
}

struct PlanPin {
  bool fetch;
  std::size_t sector_kb;
  int channels;
  int fleet;  // other registered writers; 9 is in the contended regime
  std::size_t records;
  std::uint64_t fnv;
};

constexpr PlanPin kPlanPins[] = {
    {false, 4, 1, 0, 119, 0x282d04c52db624a4ull},
    {false, 4, 1, 9, 119, 0xeaf11b4cf01bf03aull},
    {false, 4, 3, 0, 119, 0x8c38365ac74361f4ull},
    {false, 4, 3, 9, 119, 0xaea64ba04c0f707aull},
    {false, 64, 1, 0, 11, 0x5dbb1fe01b13e328ull},
    {false, 64, 1, 9, 11, 0x5800662bceed8fbbull},
    {false, 64, 3, 0, 11, 0xe0d974de42fc9e1eull},
    {false, 64, 3, 9, 11, 0x33a78b6f54aea237ull},
    {false, 256, 1, 0, 7, 0xb7c87ad32080bb2aull},
    {false, 256, 1, 9, 7, 0xd2c28736814377a9ull},
    {false, 256, 3, 0, 7, 0x860dc7386ee44d5eull},
    {false, 256, 3, 9, 7, 0x07b88e9bb357e7e7ull},
    {true, 4, 1, 0, 119, 0x9b744679eb680adaull},
    {true, 4, 1, 9, 119, 0x96f8c7d17dc5f1f8ull},
    {true, 4, 3, 0, 119, 0xdf85ed10780752feull},
    {true, 4, 3, 9, 119, 0x653e9bc62f423684ull},
    {true, 64, 1, 0, 11, 0x83177310ff552d1aull},
    {true, 64, 1, 9, 11, 0x05fd0946115906e9ull},
    {true, 64, 3, 0, 11, 0xf7e8b8ff0294512cull},
    {true, 64, 3, 9, 11, 0xe3ca5ee3b5f84531ull},
    {true, 256, 1, 0, 7, 0x17b7bb7c67d53e64ull},
    {true, 256, 1, 9, 7, 0x492f0f291b57bb57ull},
    {true, 256, 3, 0, 7, 0x85e8ddf58d1d95e0ull},
    {true, 256, 3, 9, 7, 0xa3f179c1ffc686ddull},
};

TEST(SectorPlanPin, EveryConfigurationMatchesItsPinnedRecords) {
  for (const PlanPin& pin : kPlanPins) {
    const auto records =
        pin_records(pin.fetch, pin.sector_kb, pin.channels, pin.fleet);
    std::string rendered;
    for (const SectorRecord& r : records) rendered += render_record(r);
    EXPECT_EQ(records.size(), pin.records)
        << (pin.fetch ? "fetch " : "append ") << pin.sector_kb << " KiB x"
        << pin.channels << " fleet " << pin.fleet;
    EXPECT_EQ(fnv1a64(rendered), pin.fnv)
        << (pin.fetch ? "fetch " : "append ") << pin.sector_kb << " KiB x"
        << pin.channels << " fleet " << pin.fleet << ":\n"
        << rendered;
  }
}

TEST(SectorPlanPin, ContendedAppendRowsSpelledOut) {
  // 256 KiB sectors on 3 channels beside 9 registered writers: 10 clients
  // share the OSTs, so transfers are priced below the client link.
  struct Row {
    std::size_t message, sector;
    int channel;
    std::size_t bytes;
    int clients;
    double rpc_s, xfer_s;
  };
  constexpr Row kRows[] = {
      {0, 0, 0, 0, 10, 0x1.a36e2eb1c432dp-15, 0x0p+0},
      {1, 1, 1, 1, 10, 0x1.a36e2eb1c432dp-15, 0x1.1e54c672874dbp-31},
      {2, 2, 2, 40000, 10, 0x1.a36e2eb1c432dp-14, 0x1.5d867c3ece2a5p-16},
      {3, 3, 0, 65536, 10, 0x1.3a92a30553262p-13, 0x1.1e54c672874dbp-15},
      {4, 4, 1, 65537, 10, 0x1.3a92a30553262p-13, 0x1.1e55e4c74dc03p-15},
      {5, 5, 2, 262144, 10, 0x1.d7dbf487fcb92p-12, 0x1.1e54c672874dbp-13},
      {5, 6, 0, 37857, 10, 0x1.a36e2eb1c432dp-14, 0x1.4accacec5cb51p-16},
  };
  const auto records = pin_records(false, 256, 3, 9);
  ASSERT_EQ(records.size(), std::size(kRows));
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].message, kRows[i].message) << i;
    EXPECT_EQ(records[i].sector, kRows[i].sector) << i;
    EXPECT_EQ(records[i].channel, kRows[i].channel) << i;
    EXPECT_EQ(records[i].bytes, kRows[i].bytes) << i;
    EXPECT_EQ(records[i].clients, kRows[i].clients) << i;
    EXPECT_EQ(records[i].rpc_s, kRows[i].rpc_s) << i;
    EXPECT_EQ(records[i].xfer_s, kRows[i].xfer_s) << i;
  }
}

TEST(StreamedTransportPin, WriteAndReadColumnsOfA24CubeSzxField) {
  // One transported write and restart per container. write_j is not
  // pinned: its wire charge lands on the shared monitor after the lanes'
  // energy, so its last bits follow the host compress timings.
  struct Pin {
    const char* io_library;
    std::size_t write_sectors, read_sectors;
    double fetch_j;
    double slab_write_s[6];
    double slab_fetch_s[6];
  };
  const Pin kPins[] = {
      {"HDF5", 18, 18, 0x1.0176758b3ae6p-2,
       {0x1.5c188efe70fc2p-13, 0x1.5c41d77dee88ep-13,
        0x1.5c41d77dee88ep-13, 0x1.5c146e24e46ep-13,
        0x1.5c24f18b16a65p-13, 0x1.5c3db6a461fadp-13},
       {0x1.5c188efe70fc2p-13, 0x1.5c41d77dee88ep-13,
        0x1.5c41d77dee88ep-13, 0x1.5c146e24e46ep-13,
        0x1.5c24f18b16a65p-13, 0x1.5c3db6a461fadp-13}},
      {"ADIOS", 18, 18, 0x1.f764f47b47978p-3,
       {0x1.4c67638a696e7p-13, 0x1.4c8e0553eaa95p-13,
        0x1.4c8e0553eaa95p-13, 0x1.4c63868fdc822p-13,
        0x1.4c72fa7a10335p-13, 0x1.4c8a28595dbd1p-13},
       {0x1.4c67638a696e7p-13, 0x1.4c8e0553eaa95p-13,
        0x1.4c8e0553eaa95p-13, 0x1.4c63868fdc822p-13,
        0x1.4c72fa7a10335p-13, 0x1.4c8a28595dbd1p-13}},
  };
  const Field field = smooth_field_3d(24);
  for (const Pin& pin : kPins) {
    PipelineConfig config;
    config.codec = "SZx";
    config.error_bound = 1e-3;
    config.io_library = pin.io_library;
    StreamConfig stream;
    stream.slabs = 6;
    stream.transport.sector_bytes = 1024;
    stream.transport.channels = 3;
    PfsSimulator pfs;
    const auto w = run_streamed_compress_write(field, config, pfs, stream);
    const auto r = run_streamed_read(pfs, w.path, config, stream);
    EXPECT_EQ(w.transport.sectors, pin.write_sectors) << pin.io_library;
    EXPECT_EQ(r.transport.sectors, pin.read_sectors) << pin.io_library;
    EXPECT_EQ(r.fetch_j, pin.fetch_j) << pin.io_library;
    ASSERT_EQ(w.slab_write_s.size(), 6u);
    ASSERT_EQ(r.slab_fetch_s.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(w.slab_write_s[i], pin.slab_write_s[i])
          << pin.io_library << " slab " << i;
      EXPECT_EQ(r.slab_fetch_s[i], pin.slab_fetch_s[i])
          << pin.io_library << " slab " << i;
    }
  }
}

}  // namespace
}  // namespace eblcio
