#include "math/kernels.h"

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace auditgame::math {
namespace {

// Mixed-magnitude values so reassociation would actually change bits: a
// reduction that merely "approximately agrees" with the blocked order fails
// these tests, which compare bit patterns.
std::vector<double> RandomVector(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-12, 12);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::ldexp(mantissa(rng), exponent(rng));
  }
  return v;
}

bool SameBits(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Lengths covering the empty vector, every tail length below one block,
// exact blocks and odd tails after many blocks.
constexpr size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 257, 1000};

// The canonical blocked order, written out the slow way.
double ReferenceBlockedSum(const std::vector<double>& terms) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < terms.size(); ++i) lane[i & 3] += terms[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

TEST(KernelsTest, SumFollowsCanonicalBlockedOrder) {
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVector(n, 11 + n);
    EXPECT_TRUE(SameBits(Sum(x.data(), n), ReferenceBlockedSum(x)))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotFollowsCanonicalBlockedOrder) {
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVector(n, 101 + n);
    const std::vector<double> y = RandomVector(n, 202 + n);
    std::vector<double> products(n);
    for (size_t i = 0; i < n; ++i) products[i] = x[i] * y[i];
    EXPECT_TRUE(
        SameBits(Dot(x.data(), y.data(), n), ReferenceBlockedSum(products)))
        << "n=" << n;
  }
}

TEST(KernelsTest, AbsDiffSumFollowsCanonicalBlockedOrder) {
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVector(n, 303 + n);
    const std::vector<double> y = RandomVector(n, 404 + n);
    std::vector<double> gaps(n);
    for (size_t i = 0; i < n; ++i) gaps[i] = std::fabs(x[i] - y[i]);
    EXPECT_TRUE(
        SameBits(AbsDiffSum(x.data(), y.data(), n), ReferenceBlockedSum(gaps)))
        << "n=" << n;
  }
}

// Random terms rarely expose the final (l0 + l1) + (l2 + l3) step, since
// one lane usually dominates. Here a left-to-right sum rounds 2^53 + 1 back
// to 2^53 twice, while the blocked order adds the two 1s first.
TEST(KernelsTest, ReductionsAddLanePairsFirst) {
  const double big = 0x1p53;
  const std::vector<double> x = {big, 0.0, 1.0, 1.0};
  const std::vector<double> ones(4, 1.0);
  const std::vector<double> zeros(4, 0.0);
  EXPECT_EQ(Sum(x.data(), 4), big + 2.0);
  EXPECT_EQ(Dot(x.data(), ones.data(), 4), big + 2.0);
  EXPECT_EQ(AbsDiffSum(x.data(), zeros.data(), 4), big + 2.0);
}

TEST(KernelsTest, ElementwiseKernelsRoundOncePerElement) {
  const double a = 0.371;
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVector(n, 7 + n);
    const std::vector<double> y0 = RandomVector(n, 77 + n);

    std::vector<double> axpy = y0, add = y0, scale = y0;
    Axpy(a, x.data(), axpy.data(), n);
    Add(x.data(), add.data(), n);
    Scale(a, scale.data(), n);

    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(axpy[i], y0[i] + a * x[i])) << "n=" << n
                                                       << " i=" << i;
      EXPECT_TRUE(SameBits(add[i], y0[i] + x[i])) << "n=" << n << " i=" << i;
      EXPECT_TRUE(SameBits(scale[i], y0[i] * a)) << "n=" << n << " i=" << i;
    }
  }
}

// a * b = 1 - 2^-60 exactly, which rounds to 1.0; c = -1. Rounded twice,
// a * b + c is 0. A fused multiply-add rounds once and yields -2^-60, so
// a build that lets the compiler contract the kernels' multiply-add pairs
// (an FMA target without -ffp-contract=off) fails here. The reference
// forces the product through a volatile, which no compiler can fuse.
TEST(KernelsTest, NoFusedMultiplyAdd) {
  const double a = 1.0 + 0x1p-30;
  const double b = 1.0 - 0x1p-30;
  const double c = -1.0;
  volatile double product = a * b;
  const double expected = c + product;
  ASSERT_EQ(expected, 0.0);
  ASSERT_NE(std::fma(a, b, c), expected);

  // Elements 0 and 4 share lane 0: the lane holds c, then adds a * b.
  const std::vector<double> x = {c, 0.0, 0.0, 0.0, a};
  const std::vector<double> y = {1.0, 0.0, 0.0, 0.0, b};
  EXPECT_TRUE(SameBits(Dot(x.data(), y.data(), x.size()), expected));

  std::vector<double> acc(9, c);
  const std::vector<double> bs(9, b);
  Axpy(a, bs.data(), acc.data(), acc.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    EXPECT_TRUE(SameBits(acc[i], expected)) << "i=" << i;
  }
}

TEST(KernelsTest, ConvolveShiftSaturateMatchesDefinition) {
  for (size_t n : {1u, 4u, 9u, 33u, 128u}) {
    for (size_t shift : {size_t{0}, size_t{1}, n / 2, n - 1, n}) {
      const std::vector<double> p = RandomVector(n, 5 + n + shift);
      const std::vector<double> base = RandomVector(n, 55 + n + shift);
      const double q = 0.625;

      // Reference: element-wise adds over the non-saturating range, then
      // one blocked-order reduction of the saturating tail.
      std::vector<double> expected = base;
      const size_t dense = n - shift;
      for (size_t s = 0; s < dense; ++s) expected[s + shift] += q * p[s];
      std::vector<double> tail_terms;
      for (size_t s = dense; s < n; ++s) tail_terms.push_back(q * p[s]);
      expected[n - 1] += ReferenceBlockedSum(tail_terms);

      std::vector<double> next = base;
      ConvolveShiftSaturate(p.data(), n, shift, q, next.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(SameBits(next[i], expected[i]))
            << "n=" << n << " shift=" << shift << " i=" << i;
      }
    }
  }
}

TEST(KernelsTest, SparseDotGathersAgainstDenseVector) {
  const std::vector<double> y = RandomVector(32, 9);
  const std::vector<std::pair<int, double>> terms = {
      {3, 0.5}, {0, -1.25}, {31, 2.0}, {3, 0.25}};
  double expected = 0.0;
  for (const auto& [index, weight] : terms) expected += weight * y[index];
  EXPECT_TRUE(
      SameBits(SparseDot(terms.data(), terms.size(), y.data()), expected));
}

TEST(KernelsTest, BlockedAccumulatorMatchesSumBitwise) {
  for (size_t n : {0u, 3u, 4u, 100u, 1001u}) {
    const std::vector<double> x = RandomVector(n, 31 + n);
    BlockedAccumulator acc;
    for (double v : x) acc.Add(v);
    EXPECT_TRUE(SameBits(acc.Total(), Sum(x.data(), n))) << "n=" << n;
  }
}

}  // namespace
}  // namespace auditgame::math
