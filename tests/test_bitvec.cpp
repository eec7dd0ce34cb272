/**
 * @file
 * BitVec unit and property tests: arithmetic wraps modulo 2^width,
 * slicing/concatenation roundtrips, comparisons agree with uint64
 * semantics on narrow values.
 */

#include <gtest/gtest.h>

#include <random>

#include "support/bitvec.h"

using anvil::BitVec;

namespace {

TEST(BitVec, ConstructionAndWidth)
{
    BitVec v(8, 0x5a);
    EXPECT_EQ(v.width(), 8);
    EXPECT_EQ(v.toUint64(), 0x5au);
    EXPECT_TRUE(v.bit(1));
    EXPECT_FALSE(v.bit(0));
}

TEST(BitVec, TruncatesToWidth)
{
    BitVec v(4, 0xff);
    EXPECT_EQ(v.toUint64(), 0xfu);
}

TEST(BitVec, FromBinaryAndHex)
{
    EXPECT_EQ(BitVec::fromBinary("1010").toUint64(), 10u);
    EXPECT_EQ(BitVec::fromBinary("1010").width(), 4);
    EXPECT_EQ(BitVec::fromHex("deadbeef").toUint64(), 0xdeadbeefu);
    EXPECT_EQ(BitVec::fromHex("deadbeef").width(), 32);
}

TEST(BitVec, WideValues)
{
    BitVec v(200);
    v.setBit(199, true);
    v.setBit(0, true);
    EXPECT_TRUE(v.bit(199));
    EXPECT_TRUE(v.bit(0));
    EXPECT_FALSE(v.bit(100));
    EXPECT_EQ(v.popcount(), 2);
}

TEST(BitVec, AdditionWrapsAtWidth)
{
    BitVec a(8, 0xff);
    BitVec b(8, 1);
    EXPECT_EQ((a + b).toUint64(), 0u);
}

TEST(BitVec, AdditionCarriesAcrossWords)
{
    BitVec a = BitVec::ones(128);
    BitVec b(128, 1);
    BitVec s = a + b;
    EXPECT_TRUE(s.isZero());
}

TEST(BitVec, SubtractionIsTwosComplement)
{
    BitVec a(16, 5);
    BitVec b(16, 7);
    EXPECT_EQ((a - b).toUint64(), 0xfffeu);
}

TEST(BitVec, MultiplyMatches64Bit)
{
    BitVec a(64, 123456789);
    BitVec b(64, 987654321);
    EXPECT_EQ((a * b).toUint64(), 123456789ull * 987654321ull);
}

TEST(BitVec, ShiftsAndSlices)
{
    BitVec v(16, 0x00ff);
    EXPECT_EQ((v << 4).toUint64(), 0x0ff0u);
    EXPECT_EQ((v >> 4).toUint64(), 0x000fu);
    EXPECT_EQ(v.slice(4, 8).toUint64(), 0x0fu);
    EXPECT_EQ(v.slice(4, 8).width(), 8);
}

TEST(BitVec, SliceBeyondWidthReadsZero)
{
    BitVec v(8, 0xff);
    EXPECT_EQ(v.slice(4, 8).toUint64(), 0x0fu);
}

TEST(BitVec, ConcatHigh)
{
    BitVec lo(8, 0x34);
    BitVec hi(8, 0x12);
    BitVec v = lo.concatHigh(hi);
    EXPECT_EQ(v.width(), 16);
    EXPECT_EQ(v.toUint64(), 0x1234u);
}

TEST(BitVec, UnsignedComparison)
{
    EXPECT_TRUE(BitVec(8, 3).ult(BitVec(8, 200)));
    EXPECT_FALSE(BitVec(8, 200).ult(BitVec(8, 3)));
    EXPECT_TRUE(BitVec(8, 7).ule(BitVec(8, 7)));
    // Across widths.
    EXPECT_TRUE(BitVec(8, 200).ult(BitVec(128, 1) << 100));
}

TEST(BitVec, HexRendering)
{
    EXPECT_EQ(BitVec(8, 0x5a).toHex(), "0x5a");
    EXPECT_EQ(BitVec(12, 0x5a).toHex(), "0x05a");
    EXPECT_EQ(BitVec(4, 10).toBinary(), "1010");
}

/** Property sweep: BitVec arithmetic agrees with masked uint64. */
class BitVecProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BitVecProperty, MatchesUint64Semantics)
{
    int width = GetParam();
    uint64_t mask = width >= 64 ? ~0ull : ((1ull << width) - 1);
    std::mt19937_64 rng(width);
    for (int i = 0; i < 200; i++) {
        uint64_t x = rng() & mask;
        uint64_t y = rng() & mask;
        BitVec a(width, x), b(width, y);
        EXPECT_EQ((a + b).toUint64(), (x + y) & mask);
        EXPECT_EQ((a - b).toUint64(), (x - y) & mask);
        EXPECT_EQ((a & b).toUint64(), x & y);
        EXPECT_EQ((a | b).toUint64(), x | y);
        EXPECT_EQ((a ^ b).toUint64(), x ^ y);
        EXPECT_EQ((~a).toUint64(), ~x & mask);
        EXPECT_EQ(a == b, x == y);
        EXPECT_EQ(a.ult(b), x < y);
        int sh = static_cast<int>(rng() % width);
        EXPECT_EQ((a << sh).toUint64(), (x << sh) & mask);
        EXPECT_EQ((a >> sh).toUint64(), (x & mask) >> sh);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecProperty,
                         ::testing::Values(1, 3, 8, 13, 17, 32, 33, 48,
                                           63, 64));

TEST(BitVec, ResizeRoundtrip)
{
    BitVec v(40, 0xabcdef1234ull);
    EXPECT_EQ(v.resize(64).toUint64(), 0xabcdef1234ull);
    EXPECT_EQ(v.resize(16).toUint64(), 0x1234u);
    EXPECT_EQ(v.resize(16).resize(40).toUint64(), 0x1234u);
}

// --- Edge cases hardened alongside the compiled-netlist core -------------

TEST(BitVec, ShiftByWidthOrMoreIsZero)
{
    BitVec v(16, 0xffff);
    EXPECT_EQ((v << 16).toUint64(), 0u);
    EXPECT_EQ((v >> 16).toUint64(), 0u);
    EXPECT_EQ((v << 1000).toUint64(), 0u);
    EXPECT_EQ((v >> 1000).toUint64(), 0u);
    // Exactly width-1 still works.
    EXPECT_EQ((v << 15).toUint64(), 0x8000u);
    EXPECT_EQ((v >> 15).toUint64(), 1u);
}

TEST(BitVec, ShiftBy64OrMoreOnWideValues)
{
    // Word-boundary shifts must not invoke UB on the backing words.
    BitVec v = BitVec(128, 1);
    EXPECT_TRUE((v << 64).bit(64));
    EXPECT_EQ((v << 64).popcount(), 1);
    EXPECT_TRUE((v << 127).bit(127));
    EXPECT_EQ(((v << 127) >> 127).toUint64(), 1u);
    EXPECT_TRUE(((v << 100) >> 36).bit(64));
    EXPECT_EQ((v << 128).popcount(), 0);
    BitVec w = BitVec::ones(64);
    EXPECT_EQ((w << 63).toUint64(), 1ull << 63);
    EXPECT_EQ((w >> 63).toUint64(), 1u);
    EXPECT_EQ((w << 64).toUint64(), 0u);
}

TEST(BitVec, NegativeShiftIsZero)
{
    BitVec v(16, 0x1234);
    EXPECT_EQ((v << -1).toUint64(), 0u);
    EXPECT_EQ((v >> -1).toUint64(), 0u);
}

TEST(BitVec, ZeroWidthSlice)
{
    BitVec v(16, 0xffff);
    BitVec z = v.slice(4, 0);
    EXPECT_EQ(z.width(), 0);
    EXPECT_EQ(z.popcount(), 0);
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.toUint64(), 0u);
    // Zero-width values compose: concat and resize behave as the
    // empty bit string.
    EXPECT_EQ(z.concatHigh(v).toUint64(), 0xffffu);
    EXPECT_EQ(v.concatHigh(z).toUint64(), 0xffffu);
    EXPECT_EQ(z.resize(8).toUint64(), 0u);
}

TEST(BitVec, SliceWithNegativeLoReadsZeros)
{
    // Out-of-range bits (including negative indices) read as zero,
    // matching bit()'s range semantics.
    BitVec v(8, 0xa5);
    BitVec s = v.slice(-2, 8);
    EXPECT_EQ(s.toUint64(), (0xa5u << 2) & 0xffu);
    BitVec wide = BitVec::ones(100);
    EXPECT_EQ(wide.slice(-4, 70).popcount(), 66);
    EXPECT_FALSE(wide.slice(-4, 70).bit(3));
    EXPECT_TRUE(wide.slice(-4, 70).bit(4));
}

TEST(BitVec, ConcatHighNormalizesTopPartialWord)
{
    // 40 + 40 = 80 bits: the top word is partial; all-ones inputs
    // must not leave stray bits above bit 79.
    BitVec lo = BitVec::ones(40);
    BitVec hi = BitVec::ones(40);
    BitVec v = lo.concatHigh(hi);
    EXPECT_EQ(v.width(), 80);
    EXPECT_EQ(v.popcount(), 80);
    EXPECT_EQ(v.word(1), 0xffffull);      // bits 64..79 only
    EXPECT_EQ((~v).popcount(), 0);        // ~ of all-ones is zero
    // Unaligned split across the word boundary.
    BitVec a(50, 0x3ffffffffffffull);
    BitVec b(30, 0x2aaaaaaau);
    BitVec c = a.concatHigh(b);
    EXPECT_EQ(c.width(), 80);
    for (int i = 0; i < 50; i++)
        EXPECT_TRUE(c.bit(i)) << i;
    for (int i = 0; i < 30; i++)
        EXPECT_EQ(c.bit(50 + i), (i % 2) == 1) << i;
}

TEST(BitVec, SetWordsKeepsWidthAndMasks)
{
    const uint64_t narrow = 0xabcd, one = 0x55;
    BitVec v(12);
    v.setWords(&narrow, 1);
    EXPECT_EQ(v.width(), 12);
    EXPECT_EQ(v.toUint64(), 0xbcdu);
    BitVec w(100, 7);
    w.setBit(90, true);
    w.setWords(&one, 1);
    EXPECT_EQ(w.toUint64(), 0x55u);
    EXPECT_FALSE(w.bit(90));   // missing words read as zero
    EXPECT_EQ(w.width(), 100);
}

TEST(BitVec, WideShiftMatchesSliceConcat)
{
    std::mt19937_64 rng(7);
    for (int iter = 0; iter < 50; iter++) {
        BitVec v(130);
        for (int i = 0; i < 130; i++)
            v.setBit(i, rng() & 1);
        int sh = static_cast<int>(rng() % 130);
        BitVec r = v >> sh;
        BitVec s = v.slice(sh, 130 - sh).resize(130);
        EXPECT_EQ(r.toBinary(), s.toBinary());
        BitVec l = v << sh;
        for (int i = 0; i < 130; i++)
            EXPECT_EQ(l.bit(i), i >= sh && v.bit(i - sh));
    }
}

} // namespace
