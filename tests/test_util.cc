/**
 * @file
 * Unit tests for the util module: logging levels/errors, the
 * deterministic RNG (including the deterministic logarithm, the
 * exponential draw behind Poisson arrivals, and the Zipf popularity
 * sampler), table rendering, running statistics, and the integrity
 * hash (streaming equivalence, length and bit-flip coverage, pinned
 * values).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace freepart::util {
namespace {

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config '%s'", "x"), FatalError);
}

TEST(Logging, FatalMessageContainsFormattedText)
{
    try {
        fatal("value=%d name=%s", 7, "seven");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("name=seven"),
                  std::string::npos);
    }
}

TEST(Logging, SilentQuietsFatalAndPanicButNotTheThrow)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Silent);
    testing::internal::CaptureStderr();
    EXPECT_THROW(fatal("quiet %d", 1), FatalError);
    EXPECT_THROW(panic("quiet %d", 2), PanicError);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    EXPECT_THROW(fatal("loud %d", 3), FatalError);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[fatal] loud 3\n");
    setLogLevel(old);
}

TEST(Logging, LevelRoundTrips)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(old);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(13);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(DetLog, MatchesLibmAcrossTheDynamicRange)
{
    // Spot values plus a sweep over many binades: the atanh-series
    // decomposition must agree with libm to near machine precision
    // (it only has to be *deterministic*, but it should also be
    // *right*).
    EXPECT_NEAR(detLog(1.0), 0.0, 1e-15);
    EXPECT_NEAR(detLog(2.0), 0.6931471805599453, 1e-15);
    EXPECT_NEAR(detLog(10.0), std::log(10.0), 1e-14);
    for (double x : {1e-300, 1e-9, 0.1, 0.5, 1.5, 3.0, 1e9, 1e300})
        EXPECT_NEAR(detLog(x), std::log(x), std::abs(std::log(x)) * 1e-14 + 1e-14)
            << "x=" << x;
    // Subnormals take the rescale branch and stay finite.
    double subnormal = 5e-324;
    EXPECT_NEAR(detLog(subnormal), std::log(subnormal), 1e-10);
    // Total on the guarded domain.
    EXPECT_EQ(detLog(0.0), 0.0);
    EXPECT_EQ(detLog(-3.0), 0.0);
}

TEST(Rng, ExponentialHasTheRequestedMean)
{
    Rng rng(77);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double draw = rng.exponential(250.0);
        ASSERT_GE(draw, 0.0);
        sum += draw;
    }
    EXPECT_NEAR(sum / n, 250.0, 250.0 * 0.05);

    // Bit-identical replay: same seed, same stream.
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.exponential(1.0), b.exponential(1.0));
}

TEST(ZipfSampler, ExponentZeroIsUniform)
{
    const size_t n = 8;
    ZipfSampler zipf(n, 0.0);
    Rng rng(31);
    std::vector<size_t> counts(n, 0);
    const size_t draws = 16000;
    for (size_t i = 0; i < draws; ++i) {
        size_t rank = zipf.draw(rng);
        ASSERT_LT(rank, n);
        ++counts[rank];
    }
    double expected = static_cast<double>(draws) / n;
    double chi2 = 0.0;
    for (size_t count : counts) {
        double diff = static_cast<double>(count) - expected;
        chi2 += diff * diff / expected;
    }
    // df=7; uniform lands well under 30, a Zipf-skewed sampler
    // masquerading as uniform scores in the hundreds.
    EXPECT_LT(chi2, 30.0) << "chi2=" << chi2;
}

TEST(ZipfSampler, LargeExponentConcentratesOnRankZero)
{
    ZipfSampler zipf(1000, 4.0);
    Rng rng(19);
    size_t zeros = 0;
    const size_t draws = 4000;
    for (size_t i = 0; i < draws; ++i)
        if (zipf.draw(rng) == 0)
            ++zeros;
    // P(0) = 1/zeta(4) ~ 0.924; anything below 0.85 means the CDF is
    // inverted or the hottest rank is not rank 0.
    EXPECT_GT(static_cast<double>(zeros) / draws, 0.85);
}

TEST(ZipfSampler, ModerateSkewOrdersRanksByPopularity)
{
    const size_t n = 50;
    ZipfSampler zipf(n, 1.1);
    Rng rng(57);
    std::vector<size_t> counts(n, 0);
    for (size_t i = 0; i < 30000; ++i)
        ++counts[zipf.draw(rng)];
    // Head dominates tail and the long tail is still reachable.
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[0], 10 * counts[n - 1]);
    size_t touched = 0;
    for (size_t count : counts)
        if (count > 0)
            ++touched;
    EXPECT_EQ(touched, n);
}

TEST(ZipfSampler, SingleElementDomainAlwaysDrawsZero)
{
    ZipfSampler zipf(1, 1.2);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.draw(rng), 0u);
}

TEST(ZipfSampler, DrawsAreDeterministicAndConsumeOneValue)
{
    ZipfSampler zipf(64, 0.9);
    Rng a(5), b(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(zipf.draw(a), zipf.draw(b));
    // Exactly one raw value per draw: the streams stay in lockstep
    // with a raw next() consumer.
    Rng c(5);
    for (int i = 0; i < 200; ++i)
        c.next();
    EXPECT_EQ(a.next(), c.next());
}

TEST(Table, RendersHeadersAndRows)
{
    TextTable t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, ShortRowsPadded)
{
    TextTable t({"A", "B", "C"});
    t.addRow({"only"});
    EXPECT_NO_THROW(t.render());
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.0368), "3.68%");
    EXPECT_EQ(fmtCount(12411), "12,411");
    EXPECT_EQ(fmtCount(7), "7");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(RunningStat, MeanMinMaxStddev)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

// ---- Integrity hash ---------------------------------------------------

/** Deterministic, non-repeating test bytes. */
std::vector<uint8_t>
hashBytes(size_t n)
{
    std::vector<uint8_t> bytes(n);
    Rng rng(n + 1);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    return bytes;
}

/** Digest of `bytes` fed as consecutive appends of `piece` bytes. */
uint64_t
digestInPieces(const std::vector<uint8_t> &bytes, size_t piece)
{
    IntegrityHash hash;
    for (size_t at = 0; at < bytes.size(); at += piece)
        hash.append(bytes.data() + at,
                    std::min(piece, bytes.size() - at));
    return hash.digest();
}

TEST(IntegrityHash, EverySplitMatchesOneShot)
{
    // Sizes cross the 32-byte stripe and 8-byte word boundaries three
    // times over, so every pending-buffer state is entered.
    for (size_t n = 0; n <= 97; ++n) {
        std::vector<uint8_t> bytes = hashBytes(n);
        uint64_t whole = integrityHash(bytes);
        for (size_t k = 0; k <= n; ++k) {
            IntegrityHash split;
            split.append(bytes.data(), k).append(bytes.data() + k, n - k);
            ASSERT_EQ(split.digest(), whole) << "n=" << n << " k=" << k;
        }
    }
}

TEST(IntegrityHash, SmallAppendRunsMatchOneShot)
{
    // The codec streams a frame as 1-, 4- and 8-byte header pieces
    // between payloads; runs of such pieces must equal one pass.
    for (size_t n = 0; n <= 97; ++n) {
        std::vector<uint8_t> bytes = hashBytes(n);
        uint64_t whole = integrityHash(bytes);
        EXPECT_EQ(digestInPieces(bytes, 1), whole) << "n=" << n;
        EXPECT_EQ(digestInPieces(bytes, 4), whole) << "n=" << n;
    }
}

TEST(IntegrityHash, AppendedZeroByteChangesTheDigest)
{
    // Trailing zero bytes must count: a buffer padded with zeros is a
    // different buffer. Each extra byte adds a mixing step and the
    // total length is folded in too; KnownAnswers pins the latter.
    for (size_t n = 0; n <= 97; ++n) {
        std::vector<uint8_t> bytes = hashBytes(n);
        uint64_t before = integrityHash(bytes);
        bytes.push_back(0);
        EXPECT_NE(integrityHash(bytes), before) << "n=" << n;
    }
    std::vector<uint8_t> zeros;
    uint64_t prev = integrityHash(zeros);
    for (size_t n = 1; n <= 97; ++n) {
        zeros.push_back(0);
        uint64_t next = integrityHash(zeros);
        EXPECT_NE(next, prev) << n << " zero bytes";
        prev = next;
    }
}

TEST(IntegrityHash, EverySingleBitFlipChangesTheDigest)
{
    for (size_t n = 0; n <= 67; ++n) {
        std::vector<uint8_t> bytes = hashBytes(n);
        uint64_t clean = integrityHash(bytes);
        for (size_t bit = 0; bit < n * 8; ++bit) {
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            ASSERT_NE(integrityHash(bytes), clean)
                << "n=" << n << " bit=" << bit;
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
    }
}

TEST(IntegrityHash, KnownAnswers)
{
    // Pinned so any change to the lanes, tail or finalizer is a
    // deliberate one. The inputs are i * 7 + 3 for i in [0, n); the
    // values were cross-checked against an independent from-the-spec
    // model in Python.
    auto pattern = [](size_t n) {
        std::vector<uint8_t> bytes(n);
        for (size_t i = 0; i < n; ++i)
            bytes[i] = static_cast<uint8_t>(i * 7 + 3);
        return bytes;
    };
    EXPECT_EQ(integrityHash(nullptr, 0), 0x3fdf455f9dcf1e62ull);
    const uint8_t a[] = {'a'};
    EXPECT_EQ(integrityHash(a, 1), 0x722f437eb72ecc23ull);
    EXPECT_EQ(integrityHash(pattern(31)), 0x14b7c67f5d57fd36ull);
    EXPECT_EQ(integrityHash(pattern(32)), 0x23c3c17ef790fd97ull);
    EXPECT_EQ(integrityHash(pattern(100)), 0x1f0b51b74f312b3full);
    EXPECT_EQ(integrityHash(pattern(4096)), 0x796398cd432797ccull);
}

} // namespace
} // namespace freepart::util
