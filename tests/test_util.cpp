// Unit tests for src/util: RNG, bit manipulation, statistics, error macro.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include <unistd.h>

#include "util/bits.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace pfi {
namespace {

// ------------------------------------------------------------- PFI_CHECK ----

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(PFI_CHECK(1 + 1 == 2) << "never shown");
}

TEST(Check, FailingConditionThrowsWithContext) {
  try {
    const int x = 41;
    PFI_CHECK(x == 42) << "x was " << x;
    FAIL() << "expected pfi::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("x == 42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x was 41"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------------- Rng ----

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(-1.0f, 1.0f);
  EXPECT_NEAR(sum / n, 0.0, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  RunningStat st;
  for (int i = 0; i < 100000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(21);
  Rng a = parent.split();
  Rng b = parent.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------------------ bits ----

TEST(Bits, FloatRoundTrip) {
  for (float v : {0.0f, 1.0f, -2.5f, 3.14159f, 1e-30f}) {
    EXPECT_EQ(bits_to_float(float_to_bits(v)), v);
  }
}

TEST(Bits, FlipSignBit) {
  EXPECT_EQ(flip_float_bit(1.5f, 31), -1.5f);
  EXPECT_EQ(flip_float_bit(-2.0f, 31), 2.0f);
}

TEST(Bits, FlipIsInvolution) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const float v = rng.uniform(-100.0f, 100.0f);
    const int bit = static_cast<int>(rng.next_below(32));
    EXPECT_EQ(flip_float_bit(flip_float_bit(v, bit), bit), v);
  }
}

TEST(Bits, HighExponentFlipIsLargeOrNonFinite) {
  // Flipping the MSB of the exponent produces the classic "egregious"
  // hardware error: for values >= 1.0 the exponent saturates to NaN/inf;
  // for small values the magnitude explodes to ~2^96 x.
  EXPECT_TRUE(is_non_finite(flip_float_bit(1.5f, 30)));
  const float corrupted = flip_float_bit(1e-5f, 30);
  EXPECT_GT(std::abs(corrupted), 1e25f);
}

TEST(Bits, Int8FlipInvolutionAndRange) {
  for (int v = -128; v <= 127; ++v) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto x = static_cast<std::int8_t>(v);
      EXPECT_EQ(flip_int8_bit(flip_int8_bit(x, bit), bit), x);
    }
  }
}

TEST(Bits, Int8SignBitFlip) {
  EXPECT_EQ(flip_int8_bit(int8_t{1}, 7), int8_t{-127});
  EXPECT_EQ(flip_int8_bit(int8_t{-128}, 7), int8_t{0});
}

TEST(Bits, BitIndexValidated) {
  EXPECT_THROW(flip_float_bit(1.0f, 32), Error);
  EXPECT_THROW(flip_float_bit(1.0f, -1), Error);
  EXPECT_THROW(flip_int8_bit(int8_t{0}, 8), Error);
}

TEST(Bits, NonFiniteDetection) {
  EXPECT_TRUE(is_non_finite(std::numeric_limits<float>::infinity()));
  EXPECT_TRUE(is_non_finite(std::numeric_limits<float>::quiet_NaN()));
  EXPECT_FALSE(is_non_finite(0.0f));
  EXPECT_FALSE(is_non_finite(std::numeric_limits<float>::max()));
}

TEST(Bits, Fp16RoundingIsIdempotent) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const float v = rng.uniform(-100.0f, 100.0f);
    const float h = round_to_fp16(v);
    EXPECT_EQ(round_to_fp16(h), h);
    EXPECT_NEAR(h, v, std::abs(v) * 1e-3f + 1e-4f);
  }
}

TEST(Bits, Fp16FlipInvolution) {
  for (int bit = 0; bit < kHalfBits; ++bit) {
    const float v = round_to_fp16(0.375f);
    const float flipped = flip_fp16_bit(v, bit);
    EXPECT_EQ(flip_fp16_bit(flipped, bit), v) << "bit " << bit;
  }
}

// ----------------------------------------------------------------- stats ----

TEST(Stats, WilsonKnownValue) {
  // 50/100 at 95%: interval approx [0.404, 0.596].
  const auto p = wilson_interval(50, 100, 1.959964);
  EXPECT_NEAR(p.value, 0.5, 1e-9);
  EXPECT_NEAR(p.lo, 0.404, 0.002);
  EXPECT_NEAR(p.hi, 0.596, 0.002);
}

TEST(Stats, WilsonZeroSuccesses) {
  const auto p = wilson_interval(0, 1000);
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_GT(p.hi, 0.0);
  EXPECT_LT(p.hi, 0.02);
}

TEST(Stats, WilsonNarrowsWithSamples) {
  const auto small = wilson_interval(10, 1000);
  const auto large = wilson_interval(10000, 1000000);
  EXPECT_LT(large.half_width(), small.half_width());
}

TEST(Stats, WilsonPaperScaleErrorBar) {
  // Paper Sec. IV-A: ~10^7 injections per network with <0.2% error bars at
  // 99% confidence on a ~1% proportion. Verify the claim's arithmetic.
  const auto p = wilson_interval(178333, 17833333);  // 1% of 17.8M trials
  EXPECT_LT(p.half_width(), 0.002);
}

TEST(Stats, WilsonValidation) {
  EXPECT_THROW(wilson_interval(1, 0), Error);
  EXPECT_THROW(wilson_interval(5, 4), Error);
}

// Property: at a fixed success ratio, the interval narrows strictly as the
// trial count grows (more evidence can only tighten the error bar).
TEST(Stats, WilsonWidthMonotoneInTrials) {
  for (const double z : {1.959964, kZ99}) {
    double prev = 1.0;
    for (std::uint64_t n : {10u, 100u, 1000u, 10000u, 100000u}) {
      const auto p = wilson_interval(n / 5, n, z);
      EXPECT_LT(p.half_width(), prev) << "n=" << n << " z=" << z;
      prev = p.half_width();
    }
  }
}

// Property: success/failure symmetry. Counting failures instead of
// successes mirrors the interval around 1/2: lo(k, n) == 1 - hi(n-k, n).
TEST(Stats, WilsonSuccessFailureSymmetry) {
  for (std::uint64_t n : {1u, 2u, 7u, 64u, 1000u}) {
    for (std::uint64_t k = 0; k <= n; k = k * 2 + 1) {
      const auto p = wilson_interval(k, n);
      const auto q = wilson_interval(n - k, n);
      EXPECT_NEAR(p.lo, 1.0 - q.hi, 1e-12) << "k=" << k << " n=" << n;
      EXPECT_NEAR(p.hi, 1.0 - q.lo, 1e-12) << "k=" << k << " n=" << n;
    }
  }
}

// Property: the interval always contains the point estimate k/n and stays
// inside [0, 1].
TEST(Stats, WilsonContainsPointEstimate) {
  for (std::uint64_t n : {1u, 3u, 12u, 64u, 4096u}) {
    for (std::uint64_t k = 0; k <= n; k += std::max<std::uint64_t>(1, n / 7)) {
      const auto p = wilson_interval(k, n);
      EXPECT_LE(p.lo, p.value) << "k=" << k << " n=" << n;
      EXPECT_GE(p.hi, p.value) << "k=" << k << " n=" << n;
      EXPECT_GE(p.lo, 0.0);
      EXPECT_LE(p.hi, 1.0);
    }
  }
}

// Edges: k = 0 pins the lower bound to exactly 0, k = n pins the upper
// bound to exactly 1, and the degenerate n = 1 interval is near-vacuous but
// still ordered.
TEST(Stats, WilsonEdgeCases) {
  for (std::uint64_t n : {1u, 10u, 1000u}) {
    const auto zero = wilson_interval(0, n);
    EXPECT_EQ(zero.lo, 0.0) << "n=" << n;
    EXPECT_GT(zero.hi, 0.0) << "n=" << n;
    const auto all = wilson_interval(n, n);
    EXPECT_EQ(all.hi, 1.0) << "n=" << n;
    EXPECT_LT(all.lo, 1.0) << "n=" << n;
  }
  const auto single = wilson_interval(1, 1);
  EXPECT_EQ(single.value, 1.0);
  EXPECT_GT(single.hi - single.lo, 0.5);  // one trial proves almost nothing
}

// A single full-weight stratum must agree with the plain Wilson interval on
// the point estimate, and its pooled interval must CONTAIN the Wilson one
// (the pooled margin is the larger Wilson half applied to both sides).
TEST(Stats, StratifiedSingleStratumContainsWilson) {
  const StratumEstimate s{.weight = 1.0, .corruptions = 3, .trials = 40};
  const auto pooled = stratified_interval({&s, 1});
  const auto w = wilson_interval(3, 40);
  EXPECT_DOUBLE_EQ(pooled.value, w.value);
  EXPECT_LE(pooled.lo, w.lo);
  EXPECT_GE(pooled.hi, w.hi);
}

// Regression: a stratum with zero sampled trials contributes the vacuous
// [0, 1] interval, not a silent nothing — a lone unsampled stratum yields
// exactly [0, 1].
TEST(Stats, StratifiedZeroTrialStratumIsVacuous) {
  const StratumEstimate s{.weight = 1.0, .corruptions = 0, .trials = 0};
  const auto pooled = stratified_interval({&s, 1});
  EXPECT_EQ(pooled.value, 0.0);
  EXPECT_EQ(pooled.lo, 0.0);
  EXPECT_EQ(pooled.hi, 1.0);
}

// Regression: unsampled mass widens the UPPER bound only (its point
// contribution is 0 and the true mean cannot sit below that), and widens it
// strictly more than a well-sampled all-clear stratum would.
TEST(Stats, StratifiedZeroTrialWidensUpperBoundOnly) {
  const StratumEstimate sampled{.weight = 0.5, .corruptions = 5, .trials = 100};
  const StratumEstimate unsampled{.weight = 0.5, .corruptions = 0, .trials = 0};
  const StratumEstimate clear{.weight = 0.5, .corruptions = 0, .trials = 1000};
  const StratumEstimate with_hole[] = {sampled, unsampled};
  const StratumEstimate without[] = {sampled, clear};
  const auto hole = stratified_interval(with_hole);
  const auto full = stratified_interval(without);
  EXPECT_DOUBLE_EQ(hole.value, full.value);  // both contribute 0 to the mean
  EXPECT_GT(hole.hi, full.hi);               // missing evidence costs upside
  EXPECT_GE(hole.lo, full.lo);               // but never fakes a lower bound
  EXPECT_THROW(stratified_interval({}), Error);
}

TEST(Stats, RunningStatMatchesClosedForm) {
  RunningStat st;
  for (double v : {1.0, 2.0, 3.0, 4.0}) st.add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(st.min(), 1.0);
  EXPECT_EQ(st.max(), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

// ---------------------------------------------------------- strict parse ----

TEST(Parse, IntAcceptsPlainDecimals) {
  EXPECT_EQ(util::parse_int("0"), 0);
  EXPECT_EQ(util::parse_int("1200"), 1200);
  EXPECT_EQ(util::parse_int("-42"), -42);
  EXPECT_EQ(util::parse_int("7", 1, 10), 7);
}

TEST(Parse, IntRejectsGarbageThatAtollAcceptsAsZero) {
  // The regression: atoll("abc") == 0, so "--trials abc" silently ran a
  // zero-trial campaign. Strict parsing must refuse all of these.
  EXPECT_FALSE(util::parse_int("abc").has_value());
  EXPECT_FALSE(util::parse_int("").has_value());
  EXPECT_FALSE(util::parse_int("12x").has_value());
  EXPECT_FALSE(util::parse_int("1 2").has_value());
  EXPECT_FALSE(util::parse_int("12.5").has_value());
  EXPECT_FALSE(util::parse_int("99999999999999999999").has_value());
}

TEST(Parse, IntEnforcesRange) {
  EXPECT_FALSE(util::parse_int("0", 1, 10).has_value());
  EXPECT_FALSE(util::parse_int("11", 1, 10).has_value());
  EXPECT_EQ(util::parse_int("10", 1, 10), 10);
}

TEST(Parse, UintRejectsNegativeInsteadOfWrapping) {
  // strtoull("-1") silently wraps to 2^64-1; parse_uint must refuse.
  EXPECT_FALSE(util::parse_uint("-1").has_value());
  EXPECT_FALSE(util::parse_uint("+1").has_value());
  EXPECT_FALSE(util::parse_uint("abc").has_value());
  EXPECT_FALSE(util::parse_uint("").has_value());
  EXPECT_EQ(util::parse_uint("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(util::parse_uint("18446744073709551616").has_value());
}

// --------------------------------------------------------------- file io ----

TEST(FileIo, AtomicWriteReplacesContentAndLeavesNoTemp) {
  const std::string path = "/tmp/pfi_test_fileio_atomic.bin";
  std::remove(path.c_str());
  util::atomic_write_file(path, "first");
  EXPECT_EQ(util::read_file(path), "first");
  util::atomic_write_file(path, "second, longer payload");
  EXPECT_EQ(util::read_file(path), "second, longer payload");
  EXPECT_FALSE(util::file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileIo, AppendSyncGrowsAndReportsSize) {
  const std::string path = "/tmp/pfi_test_fileio_append.bin";
  std::remove(path.c_str());
  EXPECT_EQ(util::file_size(path), -1);
  EXPECT_EQ(util::append_file_sync(path, "abc"), 3u);
  EXPECT_EQ(util::append_file_sync(path, "defgh"), 8u);
  EXPECT_EQ(util::file_size(path), 8);
  EXPECT_EQ(util::read_file(path), "abcdefgh");
  std::remove(path.c_str());
}

TEST(FileIo, TruncateDropsTornTail) {
  const std::string path = "/tmp/pfi_test_fileio_trunc.bin";
  std::remove(path.c_str());
  util::append_file_sync(path, "committed\n{torn");
  util::truncate_file(path, 10);
  EXPECT_EQ(util::read_file(path), "committed\n");
  std::remove(path.c_str());
}

TEST(FileIo, ReadMissingFileThrows) {
  EXPECT_THROW(util::read_file("/tmp/pfi_test_fileio_missing.bin"), Error);
  EXPECT_FALSE(util::file_exists("/tmp/pfi_test_fileio_missing.bin"));
}

TEST(FileIo, EnsureDirCreatesNestedAndIsIdempotent) {
  const std::string parent = "/tmp/pfi_test_ensure_dir";
  const std::string nested = parent + "/a/b";
  ::rmdir(nested.c_str());
  ::rmdir((parent + "/a").c_str());
  ::rmdir(parent.c_str());
  util::ensure_dir(nested);
  EXPECT_NO_THROW(util::ensure_dir(nested));  // already exists: fine
  const std::string probe = nested + "/probe";
  util::atomic_write_file(probe, "x");
  EXPECT_EQ(util::read_file(probe), "x");
  std::remove(probe.c_str());
  ::rmdir(nested.c_str());
  ::rmdir((parent + "/a").c_str());
  ::rmdir(parent.c_str());
}

// --------------------------------------------------------------- strings ----

TEST(JsonEscape, RoundTripsEveryByteClass) {
  std::string all;
  for (int c = 1; c < 128; ++c) all.push_back(static_cast<char>(c));
  EXPECT_EQ(util::json_unescape(util::json_escape(all)), all);
}

TEST(JsonEscape, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json_escape("line\nfeed\ttab\rcr"),
            "line\\nfeed\\ttab\\rcr");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
  // The escaped form has no control bytes and no unescaped quote — i.e. it
  // is always safe inside a JSON string literal.
  std::string hostile = "\"\\\n\r\t\x02\x1f";
  const std::string esc = util::json_escape(hostile);
  for (std::size_t i = 0; i < esc.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(esc[i]), 0x20u);
    if (esc[i] == '"') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(esc[i - 1], '\\');
    }
  }
  EXPECT_EQ(util::json_unescape(esc), hostile);
}

TEST(JsonEscape, UnescapeRejectsMalformedInput) {
  EXPECT_THROW(util::json_unescape("dangling\\"), Error);
  EXPECT_THROW(util::json_unescape("\\q"), Error);
  EXPECT_THROW(util::json_unescape("\\u00"), Error);
  EXPECT_THROW(util::json_unescape("\\u0080"), Error);  // non-ASCII refused
  EXPECT_THROW(util::json_unescape("\\uzzzz"), Error);
  EXPECT_THROW(util::json_unescape("\\u00zz"), Error);  // not NUL
}

TEST(Fnv1a, MatchesReferenceVectorsAndChains) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(util::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ull);
  // Incremental chaining equals one-shot hashing — the property the shard
  // log digest relies on (one wave appended per commit).
  const std::string a = "first wave\n", b = "second wave\n";
  EXPECT_EQ(util::fnv1a(b, util::fnv1a(a)), util::fnv1a(a + b));
  EXPECT_NE(util::fnv1a(a + b), util::fnv1a(b + a));
}

TEST(Fnv1a, SensitiveToEveryByte) {
  const std::string base(64, 'x');
  const std::uint64_t h = util::fnv1a(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] ^= 1;
    EXPECT_NE(util::fnv1a(mutated), h) << "byte " << i;
  }
}

// ------------------------------------------------------- env knobs ----------
// The bench/example front ends read their PFI_* parameters through
// util/env.hpp. The regression pinned here: atoll-era parsing read
// PFI_SHARDS=4x as 4 and PFI_TRIALS=abc as 0; the strict helpers must throw
// instead, naming the variable.

TEST(ParseEnv, FallsBackWhenUnset) {
  unsetenv("PFI_TEST_KNOB");
  EXPECT_EQ(util::env_int("PFI_TEST_KNOB", 7), 7);
  EXPECT_EQ(util::env_uint("PFI_TEST_KNOB", 9u), 9u);
  EXPECT_DOUBLE_EQ(util::env_double("PFI_TEST_KNOB", 0.5), 0.5);
  EXPECT_EQ(util::env_str("PFI_TEST_KNOB", "dflt"), "dflt");
}

TEST(ParseEnv, ParsesWellFormedValues) {
  setenv("PFI_TEST_KNOB", "42", 1);
  EXPECT_EQ(util::env_int("PFI_TEST_KNOB", 0), 42);
  EXPECT_EQ(util::env_uint("PFI_TEST_KNOB", 0), 42u);
  setenv("PFI_TEST_KNOB", "-3", 1);
  EXPECT_EQ(util::env_int("PFI_TEST_KNOB", 0), -3);
  setenv("PFI_TEST_KNOB", "1e-3", 1);
  EXPECT_DOUBLE_EQ(util::env_double("PFI_TEST_KNOB", 0.0), 1e-3);
  unsetenv("PFI_TEST_KNOB");
}

TEST(ParseEnv, RejectsTrailingJunkLoudly) {
  setenv("PFI_TEST_KNOB", "4x", 1);
  EXPECT_THROW(util::env_int("PFI_TEST_KNOB", 0), Error);  // atoll read 4
  EXPECT_THROW(util::env_uint("PFI_TEST_KNOB", 0), Error);
  setenv("PFI_TEST_KNOB", "abc", 1);
  EXPECT_THROW(util::env_int("PFI_TEST_KNOB", 0), Error);  // atoll read 0
  setenv("PFI_TEST_KNOB", "1.5.2", 1);
  EXPECT_THROW(util::env_double("PFI_TEST_KNOB", 0.0), Error);
  setenv("PFI_TEST_KNOB", "nan", 1);
  EXPECT_THROW(util::env_double("PFI_TEST_KNOB", 0.0), Error);
  unsetenv("PFI_TEST_KNOB");
}

TEST(ParseEnv, RejectsOutOfRangeAndNamesTheVariable) {
  setenv("PFI_TEST_KNOB", "99", 1);
  EXPECT_THROW(util::env_int("PFI_TEST_KNOB", 0, 0, 10), Error);
  try {
    util::env_int("PFI_TEST_KNOB", 0, 0, 10);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("PFI_TEST_KNOB"), std::string::npos);
  }
  setenv("PFI_TEST_KNOB", "0.5", 1);
  EXPECT_THROW(util::env_double("PFI_TEST_KNOB", 0.6, 0.6, 1.0), Error);
  unsetenv("PFI_TEST_KNOB");
}

}  // namespace
}  // namespace pfi
