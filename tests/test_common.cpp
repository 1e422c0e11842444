// Tests for the common module: Shape/NdArray/Field, Rng, CLI parsing,
// formatting, byte serialization and the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/field.h"
#include "common/format.h"
#include "common/ndarray.h"
#include "common/rng.h"
#include "common/table.h"

namespace eblcio {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{4, 5, 6};
  EXPECT_EQ(s.ndims(), 3);
  EXPECT_EQ(s.dim(0), 4u);
  EXPECT_EQ(s.dim(2), 6u);
  EXPECT_EQ(s.num_elements(), 120u);
}

TEST(Shape, RowMajorStrides) {
  Shape s{4, 5, 6};
  const auto st = s.strides();
  EXPECT_EQ(st[2], 1u);
  EXPECT_EQ(st[1], 6u);
  EXPECT_EQ(st[0], 30u);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({3, 2}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({2, 3, 1}));
}

TEST(Shape, RejectsBadDims) {
  EXPECT_THROW(Shape({0, 3}), InvalidArgument);
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), InvalidArgument);
  // Element counts whose byte size wraps size_t, even when the wrapped
  // product is small (16 x 16 x 0xFF00000000000010 wraps to 4096).
  EXPECT_THROW(Shape({16, 16, 0xFF00000000000010ULL}), InvalidArgument);
  EXPECT_THROW(Shape({std::size_t{1} << 31, std::size_t{1} << 31}),
               InvalidArgument);
  const std::vector<std::size_t> huge = {std::size_t{1} << 62};
  EXPECT_THROW(Shape{std::span<const std::size_t>(huge)}, InvalidArgument);
}

TEST(Shape, CheckedNumElements) {
  const std::vector<std::size_t> dims = {16, 16, 16};
  EXPECT_EQ(checked_num_elements(dims, 4), 4096u);
  const std::vector<std::size_t> zero = {16, 0, 16};
  EXPECT_FALSE(checked_num_elements(zero));
  const std::vector<std::size_t> wraps = {16, 16, 0xFF00000000000010ULL};
  EXPECT_FALSE(checked_num_elements(wraps));
  // The count fits; count x element width does not.
  const std::vector<std::size_t> wide = {std::size_t{1} << 62};
  EXPECT_EQ(checked_num_elements(wide, 2), std::size_t{1} << 62);
  EXPECT_FALSE(checked_num_elements(wide, 4));
}

TEST(NdArray, IndexingMatchesLinearLayout) {
  NdArray<float> a(Shape{3, 4});
  for (std::size_t i = 0; i < a.num_elements(); ++i)
    a[i] = static_cast<float>(i);
  EXPECT_EQ(a.at(1, 2), 6.0f);
  EXPECT_EQ(a.at(2, 3), 11.0f);
}

TEST(NdArray, SizeBytes) {
  NdArray<double> a(Shape{10, 10});
  EXPECT_EQ(a.size_bytes(), 800u);
}

TEST(Field, DTypeAndRange) {
  NdArray<float> a(Shape{4});
  a[0] = -3.f;
  a[1] = 0.f;
  a[2] = 7.f;
  a[3] = 2.f;
  Field f("t", std::move(a));
  EXPECT_EQ(f.dtype(), DType::kFloat32);
  const auto r = f.value_range();
  EXPECT_DOUBLE_EQ(r.min, -3.0);
  EXPECT_DOUBLE_EQ(r.max, 7.0);
  EXPECT_DOUBLE_EQ(r.span(), 10.0);
}

// The std::array formulation of Field::value_range, kept as the referee:
// element i goes to lane i mod 8, the lanes fold in order, then the tail.
template <typename T>
Field::Range scalar_lane_range(const NdArray<T>& arr) {
  Field::Range r;
  const std::size_t n = arr.num_elements();
  const T* p = arr.data();
  constexpr std::size_t kLanes = 8;
  std::array<T, kLanes> lo_l, hi_l;
  lo_l.fill(p[0]);
  hi_l.fill(p[0]);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j) {
      const T v = p[i + j];
      lo_l[j] = v < lo_l[j] ? v : lo_l[j];
      hi_l[j] = v > hi_l[j] ? v : hi_l[j];
    }
  T lo = lo_l[0], hi = hi_l[0];
  for (std::size_t j = 1; j < kLanes; ++j) {
    lo = lo_l[j] < lo ? lo_l[j] : lo;
    hi = hi_l[j] > hi ? hi_l[j] : hi;
  }
  for (; i < n; ++i) {
    const T v = p[i];
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  r.min = static_cast<double>(lo);
  r.max = static_cast<double>(hi);
  return r;
}

// Draws from ±0, NaN, ±inf and small integers, the values whose order and
// sign the lane fold must preserve.
template <typename T>
T special_value(Rng& rng) {
  constexpr T kPalette[] = {T(0.0),
                            T(-0.0),
                            std::numeric_limits<T>::quiet_NaN(),
                            std::numeric_limits<T>::infinity(),
                            -std::numeric_limits<T>::infinity()};
  const std::uint64_t k = rng.next_below(12);
  return k < 5 ? kPalette[k] : static_cast<T>(static_cast<int>(k) - 8);
}

template <typename T>
void expect_range_matches_referee(NdArray<T> arr, const char* what) {
  const Field::Range want = scalar_lane_range(arr);
  const Field f("t", std::move(arr));
  const Field::Range got = f.value_range();
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(Field::Range)), 0)
      << what << " n=" << f.num_elements() << " bytes=" << sizeof(T)
      << ": got [" << got.min << ", " << got.max << "], want [" << want.min
      << ", " << want.max << "]";
}

template <typename T>
void check_value_range_against_referee() {
  Rng rng(sizeof(T));
  for (std::size_t n = 1; n <= 40; ++n)
    for (int trial = 0; trial < 400; ++trial) {
      NdArray<T> arr(Shape{n});
      for (std::size_t i = 0; i < n; ++i) arr[i] = special_value<T>(rng);
      expect_range_matches_referee(std::move(arr), "random");
    }
  // NaN first poisons the result; NaN inside is skipped.
  for (std::size_t n : {1u, 7u, 8u, 9u, 33u}) {
    NdArray<T> first(Shape{n}), inside(Shape{n});
    for (std::size_t i = 0; i < n; ++i)
      first[i] = inside[i] = static_cast<T>(i) - T(3);
    first[0] = std::numeric_limits<T>::quiet_NaN();
    inside[n / 2] = std::numeric_limits<T>::quiet_NaN();
    expect_range_matches_referee(std::move(first), "NaN first");
    expect_range_matches_referee(std::move(inside), "NaN inside");
  }
  // Large array: the vector body dominates, extremes in every lane and
  // in the tail.
  const std::size_t big = (1u << 18) + 5;
  NdArray<T> arr(Shape{big});
  for (std::size_t i = 0; i < big; ++i)
    arr[i] = static_cast<T>(rng.normal() * 100.0);
  arr[big - 1] = T(-1e6);
  arr[big / 3] = T(1e6);
  expect_range_matches_referee(std::move(arr), "large");
}

TEST(Field, ValueRangeMatchesScalarLaneReferee) {
  check_value_range_against_referee<float>();
  check_value_range_against_referee<double>();
}

TEST(Field, BytesViewMatchesData) {
  NdArray<double> a(Shape{3});
  a[0] = 1.5;
  Field f("t", std::move(a));
  EXPECT_EQ(f.bytes().size(), 24u);
  double v;
  std::memcpy(&v, f.bytes().data(), 8);
  EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(Field, TypedAccessorThrowsOnWrongType) {
  Field f("t", NdArray<float>(Shape{2}));
  EXPECT_NO_THROW(f.as<float>());
  EXPECT_THROW(f.as<double>(), InvalidArgument);
}

TEST(Field, CenteredSampleCopiesTheCentralBox) {
  // Every sampled element is the source element at the box's offset, for
  // edges shorter and longer than max_edge, in 1 to 4 dimensions and both
  // dtypes.
  const std::vector<std::vector<std::size_t>> shapes = {
      {100}, {7, 70}, {9, 50, 3}, {3, 20, 6, 11}};
  for (const auto& dims : shapes) {
    const Shape shape{std::span<const std::size_t>(dims)};
    NdArray<double> arr(shape);
    for (std::size_t i = 0; i < arr.num_elements(); ++i)
      arr[i] = static_cast<double>(i);
    const Field sample = centered_sample(Field("f", std::move(arr)), 8);
    const auto& out = sample.as<double>();
    const auto src = shape.strides();
    const auto dst = out.shape().strides();
    for (std::size_t i = 0; i < out.num_elements(); ++i) {
      std::size_t at = 0;
      for (int d = 0; d < shape.ndims(); ++d) {
        const std::size_t edge = std::min<std::size_t>(dims[d], 8);
        EXPECT_EQ(out.shape().dim(d), edge);
        at += ((dims[d] - edge) / 2 + i / dst[d] % edge) * src[d];
      }
      ASSERT_EQ(out[i], static_cast<double>(at)) << i;
    }
  }
  NdArray<float> f32(Shape{5, 5});
  f32[12] = 3.5f;
  const Field s32 = centered_sample(Field("g", std::move(f32)), 1);
  EXPECT_EQ(s32.dtype(), DType::kFloat32);
  EXPECT_EQ(s32.num_elements(), 1u);
  EXPECT_EQ(s32.as<float>()[0], 3.5f);
  EXPECT_EQ(s32.name(), "g");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",       "positional", "--alpha=1.5",
                        "--name",     "hello",      "--verbose"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0), 1.5);
  EXPECT_EQ(args.get("name"), "hello");
  EXPECT_TRUE(args.get_bool("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("threads", 4), 4);
  EXPECT_FALSE(args.has("anything"));
}

TEST(Cli, RejectUnknownAcceptsReadFlags) {
  const char* argv[] = {"prog", "--verify", "--reps=3", "--json", "out.json"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.get_bool("verify"));
  EXPECT_EQ(args.get_int("reps", 1), 3);
  EXPECT_TRUE(args.has("json"));
  EXPECT_FALSE(args.has("serial"));  // read but absent: fine
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Cli, RejectUnknownNamesUnreadFlags) {
  const char* argv[] = {"prog", "--verfy", "--reps=3", "--max-worlds=2"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("reps", 1), 3);
  EXPECT_FALSE(args.get_bool("verify"));
  try {
    args.reject_unknown();
    FAIL() << "an unread flag was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--verfy"), std::string::npos) << what;
    EXPECT_NE(what.find("--max-worlds"), std::string::npos) << what;
    EXPECT_EQ(what.find("--reps"), std::string::npos) << what;
  }
}

TEST(Format, HumanBytesDecimalUnits) {
  EXPECT_EQ(human_bytes(512), "512B");
  EXPECT_EQ(human_bytes(673'900'000), "673.9MB");
  EXPECT_EQ(human_bytes(10'490'400'000ull), "10.5GB");
}

TEST(Format, ErrorBoundAxisLabels) {
  EXPECT_EQ(fmt_error_bound(1e-3), "1E-03");
  EXPECT_EQ(fmt_error_bound(1e-1), "1E-01");
  EXPECT_EQ(fmt_error_bound(1e-5), "1E-05");
}

TEST(Format, Dims) {
  EXPECT_EQ(fmt_dims({26, 1800, 3600}), "26x1800x3600");
  EXPECT_EQ(fmt_dims({512}), "512");
}

TEST(Bytes, PodRoundTrip) {
  Bytes b;
  append_pod<std::uint32_t>(b, 0xdeadbeef);
  append_pod<double>(b, 3.25);
  append_string(b, "hi");
  ByteReader r(b);
  EXPECT_EQ(r.read_pod<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.read_pod<double>(), 3.25);
  EXPECT_EQ(r.read_string(), "hi");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderThrowsOnUnderrun) {
  Bytes b;
  append_pod<std::uint16_t>(b, 7);
  ByteReader r(b);
  EXPECT_THROW(r.read_pod<std::uint64_t>(), CorruptStream);
}

TEST(Bytes, ForgedLengthsCannotWrapTheBound) {
  // pos + n wraps for n near 2^64; every read checks n <= size - pos.
  Bytes b(16, std::byte{1});
  ByteReader r(b);
  r.skip(3);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(r.read_bytes(max - 2), CorruptStream);
  EXPECT_THROW(r.read_bytes(max), CorruptStream);
  EXPECT_THROW(r.skip(max - 2), CorruptStream);
  EXPECT_EQ(r.read_bytes(13).size(), 13u);
  EXPECT_THROW(r.read_bytes(1), CorruptStream);
  Bytes s;
  append_pod<std::uint32_t>(s, 0xffffffffu);  // string longer than the span
  ByteReader rs(s);
  EXPECT_THROW(rs.read_string(), CorruptStream);
}

// `count` as a T, followed by `bytes` bytes for its items.
template <typename T>
Bytes count_then(T count, std::size_t bytes) {
  Bytes b;
  append_pod<T>(b, count);
  b.resize(b.size() + bytes);
  return b;
}

TEST(ByteReader, ReadCount) {
  // An exact fit passes and leaves the reader on the first item; one item
  // more throws CorruptStream carrying the caller's text.
  const Bytes fit = count_then<std::uint32_t>(3, 12);
  ByteReader r(fit);
  EXPECT_EQ(r.read_count<std::uint32_t>(4, "items"), 3u);
  EXPECT_EQ(r.remaining().size(), 12u);
  const Bytes over = count_then<std::uint32_t>(4, 12);
  try {
    ByteReader(over).read_count<std::uint32_t>(4, "items past the table");
    ADD_FAILURE() << "one item past the bytes left was accepted";
  } catch (const CorruptStream& e) {
    EXPECT_NE(std::string(e.what()).find("items past the table"),
              std::string::npos);
  }
  // Zero items always fit, even with no bytes behind the count.
  EXPECT_EQ(ByteReader(count_then<std::uint64_t>(0, 0))
                .read_count<std::uint64_t>(8, "x"),
            0u);
  // Counts whose byte total wraps 2^32 or 2^64 (2^62 four-byte items wrap
  // to 0 bytes, 2^62 + 1 to 4) are refused: the bound divides the bytes
  // left rather than multiplying the count.
  const std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, (std::uint64_t{1} << 62) + 1, u64_max,
        u64_max / 4 + 1}) {
    EXPECT_THROW(ByteReader(count_then(count, 8)).read_count<std::uint64_t>(
                     4, "x"),
                 CorruptStream)
        << count;
  }
  EXPECT_THROW(ByteReader(count_then<std::uint32_t>(0xFFFFFFFFu, 16))
                   .read_count<std::uint32_t>(1, "x"),
               CorruptStream);
  EXPECT_THROW(ByteReader(count_then<std::uint32_t>(0x40000001u, 4))
                   .read_count<std::uint32_t>(4, "x"),
               CorruptStream);
  // A truncated count is an underrun, not a count.
  EXPECT_THROW(ByteReader(count_then<std::uint16_t>(1, 0))
                   .read_count<std::uint32_t>(1, "x"),
               CorruptStream);
}

TEST(Table, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_rule();
  t.add_row({"longer-cell", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a           | long-header |"), std::string::npos);
  EXPECT_NE(s.find("longer-cell"), std::string::npos);
}

}  // namespace
}  // namespace eblcio
