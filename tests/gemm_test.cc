// GEMM kernels checked against a naive triple-loop reference across a
// parameterized sweep of shapes, including the degenerate and prime-sized
// cases that trip blocking/parallel-split bugs.
#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/ops.h"
#include "tensor/pack.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tifl::tensor {
namespace {

Tensor random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn({r, c}, rng);
}

Tensor reference_nn(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

using GemmShape = std::tuple<int, int, int>;  // M, K, N

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = random_matrix(m, k, 1);
  const Tensor b = random_matrix(k, n, 2);
  Tensor c({m, n});
  gemm_nn(a, b, c);
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST_P(GemmSweep, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = random_matrix(m, k, 3);
  const Tensor b_t = random_matrix(n, k, 4);  // stores B^T
  Tensor c({m, n});
  gemm_nt(a, b_t, c);
  // Reference: multiply by explicit transpose.
  Tensor b({k, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) b.at(j, i) = b_t.at(i, j);
  }
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST_P(GemmSweep, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a_t = random_matrix(k, m, 5);  // stores A^T
  const Tensor b = random_matrix(k, n, 6);
  Tensor c({m, n});
  gemm_tn(a_t, b, c);
  Tensor a({m, k});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < m; ++j) a.at(j, i) = a_t.at(i, j);
  }
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 7, 1},
                      GemmShape{2, 3, 4}, GemmShape{5, 5, 5},
                      GemmShape{13, 17, 11},  // primes
                      GemmShape{10, 64, 10},  // dense-layer shape
                      GemmShape{64, 1, 64},   // rank-1 outer product
                      GemmShape{1, 128, 32},  // single row
                      GemmShape{100, 30, 70}  // larger than a row chunk
                      ));

TEST(Gemm, AccumulateAddsOntoExisting) {
  const Tensor a = random_matrix(4, 5, 7);
  const Tensor b = random_matrix(5, 6, 8);
  Tensor c({4, 6}, 1.0f);
  gemm_nn(a, b, c, /*accumulate=*/true);
  Tensor expected = reference_nn(a, b);
  for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += 1.0f;
  EXPECT_LE(max_abs_diff(c, expected), 1e-4f);
}

TEST(Gemm, OverwriteClearsExisting) {
  const Tensor a = random_matrix(4, 5, 9);
  const Tensor b = random_matrix(5, 6, 10);
  Tensor c({4, 6}, 123.0f);
  gemm_nn(a, b, c, /*accumulate=*/false);
  EXPECT_LE(max_abs_diff(c, reference_nn(a, b)), 1e-4f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
  Tensor b2({3, 5}), c2({3, 5});
  EXPECT_THROW(gemm_nn(a, b2, c2), std::invalid_argument);
}

TEST(Gemm, RankMismatchThrows) {
  Tensor a({2, 3, 1}), b({3, 4}), c({2, 4});
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
}

TEST(Gemm, ParallelResultIsDeterministic) {
  // Same inputs, two runs: results must be bitwise identical (each output
  // element is written by exactly one task).
  const Tensor a = random_matrix(200, 50, 11);
  const Tensor b = random_matrix(50, 80, 12);
  Tensor c1({200, 80}), c2({200, 80});
  gemm_nn(a, b, c1);
  gemm_nn(a, b, c2);
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0f);
}

// --- blocked-vs-naive equivalence over odd/edge shapes ----------------------
// M, K, N sweep {1, 3, 17, 64, 257} x accumulate on/off: exercises the
// small, stream and packed dispatch paths, ragged microtiles (257 = 42*6+5
// rows, 16*16+1 columns) and multi-KC reductions (257 > KC is false here,
// but 257 columns span multiple NR panels and the x2 tile pairing).
using EdgeCase = std::tuple<int, int, int, bool>;  // M, K, N, accumulate

class GemmEdgeSweep : public ::testing::TestWithParam<EdgeCase> {
 protected:
  static constexpr float kEdgeTol = 1e-3f;  // K=257 float reduction slack
};

TEST_P(GemmEdgeSweep, NnMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a = random_matrix(m, k, 21);
  const Tensor b = random_matrix(k, n, 22);
  Tensor c = random_matrix(m, n, 23);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c[i];
  }
  gemm_nn(a, b, c, accumulate);
  EXPECT_LE(max_abs_diff(c, expected), kEdgeTol);
}

TEST_P(GemmEdgeSweep, NtMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a = random_matrix(m, k, 24);
  const Tensor b_t = random_matrix(n, k, 25);
  Tensor b({k, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) b.at(j, i) = b_t.at(i, j);
  }
  Tensor c = random_matrix(m, n, 26);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c[i];
  }
  gemm_nt(a, b_t, c, accumulate);
  EXPECT_LE(max_abs_diff(c, expected), kEdgeTol);
}

TEST_P(GemmEdgeSweep, TnMatchesReference) {
  const auto [m, k, n, accumulate] = GetParam();
  const Tensor a_t = random_matrix(k, m, 27);
  const Tensor b = random_matrix(k, n, 28);
  Tensor a({m, k});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < m; ++j) a.at(j, i) = a_t.at(i, j);
  }
  Tensor c = random_matrix(m, n, 29);
  Tensor expected = reference_nn(a, b);
  if (accumulate) {
    for (std::int64_t i = 0; i < expected.numel(); ++i) expected[i] += c[i];
  }
  gemm_tn(a_t, b, c, accumulate);
  EXPECT_LE(max_abs_diff(c, expected), kEdgeTol);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmEdgeSweep,
    ::testing::Combine(::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Values(1, 3, 17, 64, 257),
                       ::testing::Bool()));

// --- fused epilogue ---------------------------------------------------------

TEST(GemmEpilogue, BiasAndReluMatchSeparatePasses) {
  // 128^3 takes the packed path; the epilogue must equal gemm + explicit
  // bias-and-relu passes bit for bit (same adds in the same order).
  const std::int64_t m = 128, k = 128, n = 128;
  const Tensor a = random_matrix(m, k, 31);
  const Tensor b = random_matrix(k, n, 32);
  const Tensor bias_n = random_matrix(1, n, 33).reshaped({n});
  const Tensor bias_m = random_matrix(1, m, 34).reshaped({m});

  Tensor plain({m, n});
  gemm_nn(a, b, plain);
  Tensor expected = plain;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float v = expected.at(i, j) + bias_m[i] + bias_n[j];
      expected.at(i, j) = v > 0.0f ? v : 0.0f;
    }
  }

  Tensor fused({m, n});
  Epilogue ep;
  ep.bias_m = bias_m.data();
  ep.bias_n = bias_n.data();
  ep.relu = true;
  gemm_nn(a, b, fused, /*accumulate=*/false, ep);
  EXPECT_EQ(max_abs_diff(fused, expected), 0.0f);
}

TEST(GemmEpilogue, AppliesOnSmallAndStreamPaths) {
  // 8x8x8 (small path) and 4x200x300 (stream path: short C) against the
  // same manual epilogue.
  for (const auto& [m, k, n] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{8, 8, 8},
        std::tuple<std::int64_t, std::int64_t, std::int64_t>{4, 200, 300}}) {
    const Tensor a = random_matrix(m, k, 41);
    const Tensor b = random_matrix(k, n, 42);
    const Tensor bias = random_matrix(1, n, 43).reshaped({n});
    Tensor expected({m, n});
    gemm_nn(a, b, expected);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const float v = expected.at(i, j) + bias[j];
        expected.at(i, j) = v > 0.0f ? v : 0.0f;
      }
    }
    Tensor fused({m, n});
    Epilogue ep;
    ep.bias_n = bias.data();
    ep.relu = true;
    gemm_nn(a, b, fused, /*accumulate=*/false, ep);
    EXPECT_EQ(max_abs_diff(fused, expected), 0.0f) << m << "x" << k << "x" << n;
  }
}

// --- dispatch determinism ---------------------------------------------------

TEST(Gemm, NestedSerialMatchesTopLevelBitwise) {
  // From the top level the blocked kernel tiles across the pool; from a
  // worker thread it degrades to the serial blocked kernel.  Both must
  // produce bit-identical C — the pool-size determinism contract.
  const Tensor a = random_matrix(300, 200, 51);
  const Tensor b = random_matrix(200, 300, 52);
  Tensor top({300, 300}), nested({300, 300});
  gemm_nn(a, b, top);
  util::global_pool()
      .submit([&] { gemm_nn(a, b, nested); })
      .get();
  EXPECT_EQ(max_abs_diff(top, nested), 0.0f);
}

TEST(Gemm, NtNnConsistency) {
  // A*B via nn must equal A*(B^T)^T via nt.
  const Tensor a = random_matrix(6, 7, 13);
  const Tensor b = random_matrix(7, 8, 14);
  Tensor b_t({8, 7});
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) b_t.at(j, i) = b.at(i, j);
  }
  Tensor c_nn({6, 8}), c_nt({6, 8});
  gemm_nn(a, b, c_nn);
  gemm_nt(a, b_t, c_nt);
  EXPECT_LE(max_abs_diff(c_nn, c_nt), 1e-4f);
}

// --- microkernel variants ---------------------------------------------------

// Every compiled microkernel (SSE2, AVX2, AVX-512F) must give the baseline
// variant's bits on the same packed panels, and the baseline must give the
// bits of a scalar in-order K sum: which variant the CPU picks can never
// move a result.  Variants this CPU cannot run are skipped.
class MicrokernelVariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MicrokernelVariants, MatchBaselineBitwise) {
  const auto variants = detail::microkernel_variants();
  ASSERT_LT(GetParam(), variants.size());
  const detail::MicrokernelVariant& variant = variants[GetParam()];
  if (!variant.supported) GTEST_SKIP() << variant.isa << " not supported";
  const detail::MicrokernelVariant& baseline = variants.front();
  ASSERT_TRUE(baseline.supported);

  util::Rng rng(77);
  struct Edge {
    std::int64_t mr, nr;
  };
  // Full tiles and zero-padded edge panels (rows past mr, columns past nr).
  for (const Edge edge : {Edge{kMR, kNR}, Edge{1, 1}, Edge{5, 13}}) {
    for (const std::int64_t kc : {1, 5, 256}) {
      const Tensor a = Tensor::randn({edge.mr, kc}, rng);
      const Tensor b = Tensor::randn({kc, edge.nr}, rng);
      std::vector<float> apack(static_cast<std::size_t>(kMR * kc));
      std::vector<float> bpack(static_cast<std::size_t>(kc * kNR));
      pack_a({a.data(), kc, 1}, 0, 0, edge.mr, kc, apack.data());
      pack_b({b.data(), edge.nr, 1}, 0, 0, kc, edge.nr, bpack.data());

      std::vector<float> expected(kMR * kNR), base(kMR * kNR, -1.0f),
          got(kMR * kNR, -2.0f);
      for (std::int64_t i = 0; i < kMR; ++i) {
        for (std::int64_t j = 0; j < kNR; ++j) {
          float sum = 0.0f;
          for (std::int64_t p = 0; p < kc; ++p) {
            sum += apack[p * kMR + i] * bpack[p * kNR + j];
          }
          expected[i * kNR + j] = sum;
        }
      }
      baseline.kernel(kc, apack.data(), bpack.data(), base.data());
      variant.kernel(kc, apack.data(), bpack.data(), got.data());
      const std::size_t bytes = sizeof(float) * expected.size();
      EXPECT_EQ(std::memcmp(base.data(), expected.data(), bytes), 0)
          << "baseline vs in-order sum, kc " << kc << " edge " << edge.mr
          << "x" << edge.nr;
      EXPECT_EQ(std::memcmp(got.data(), base.data(), bytes), 0)
          << variant.isa << " vs baseline, kc " << kc << " edge " << edge.mr
          << "x" << edge.nr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, MicrokernelVariants,
                         ::testing::Range<std::size_t>(0, 3),
                         [](const ::testing::TestParamInfo<std::size_t>& param) {
                           return std::string(
                               detail::microkernel_variants()[param.param].isa);
                         });

TEST(Microkernel, ActiveIsTheWidestSupported) {
  const auto variants = detail::microkernel_variants();
  const detail::MicrokernelVariant* widest = nullptr;
  for (const auto& v : variants) {
    if (v.supported) widest = &v;
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_EQ(&detail::active_microkernel(), widest);
}

}  // namespace
}  // namespace tifl::tensor
