// Link-delay streams for the aggregator tree (fl/hier): every parent↔child
// edge owns one mix_seed-derived RNG stream, so sampling delays on one
// link can never perturb another link's sequence — the property the tree
// engine's bit-reproducibility rests on.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/latency_model.h"
#include "util/rng.h"

namespace tifl::sim {
namespace {

constexpr std::uint64_t kSeed = 2026;

LatencyModel model() { return LatencyModel{CostModel{0.01, 1.0}}; }

std::vector<double> sample_n(const LatencyModel& m, const LinkProfile& link,
                             util::Rng& rng, std::size_t n,
                             std::size_t payload = 4096) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(m.sample_link_delay(link, payload, rng));
  }
  return out;
}

TEST(LinkStreams, ExpectedDelayIsFloorPlusBandwidthTerm) {
  const LatencyModel m = model();
  LinkProfile link;
  link.latency_seconds = 0.05;
  link.bandwidth_mbps = 100.0;
  // 1 MB over 100 Mbps = 8e6 bits / 1e8 bits/s = 0.08 s of transfer.
  EXPECT_DOUBLE_EQ(m.expected_link_delay(link, 1'000'000), 0.05 + 0.08);
  EXPECT_DOUBLE_EQ(m.expected_link_delay(link, 0), 0.05);
}

TEST(LinkStreams, ZeroJitterIsExactAndDrawsNothing) {
  const LatencyModel m = model();
  LinkProfile link;
  link.latency_seconds = 0.02;
  link.bandwidth_mbps = 50.0;
  link.jitter_sigma = 0.0;
  util::Rng rng = link_stream(kSeed, 1);
  const auto before = rng.state();
  EXPECT_DOUBLE_EQ(m.sample_link_delay(link, 4096, rng),
                   m.expected_link_delay(link, 4096));
  // A jitter-free link consumes no randomness: the stream position is a
  // pure function of the number of *jittered* deliveries, so topologies
  // mixing jittered and clean links stay aligned.
  EXPECT_EQ(rng.state(), before);
}

TEST(LinkStreams, JitterScalesOnlyTheTransferTerm) {
  const LatencyModel m = model();
  LinkProfile link;
  link.latency_seconds = 0.5;
  link.bandwidth_mbps = 100.0;
  link.jitter_sigma = 0.4;
  util::Rng rng = link_stream(kSeed, 1);
  for (int i = 0; i < 64; ++i) {
    const double d = m.sample_link_delay(link, 1'000'000, rng);
    // The propagation floor is never jittered away.
    EXPECT_GE(d, link.latency_seconds);
  }
  // Zero payload: nothing for the jitter to scale.
  EXPECT_DOUBLE_EQ(m.sample_link_delay(link, 0, rng), 0.5);
}

TEST(LinkStreams, SameLinkIdReplaysTheSameSequence) {
  const LatencyModel m = model();
  LinkProfile link;
  link.jitter_sigma = 0.3;
  util::Rng a = link_stream(kSeed, 3);
  util::Rng b = link_stream(kSeed, 3);
  EXPECT_EQ(sample_n(m, link, a, 16), sample_n(m, link, b, 16));
}

TEST(LinkStreams, DistinctLinksAreDistinctStreams) {
  const LatencyModel m = model();
  LinkProfile link;
  link.jitter_sigma = 0.3;
  util::Rng a = link_stream(kSeed, 1);
  util::Rng b = link_stream(kSeed, 2);
  EXPECT_NE(sample_n(m, link, a, 16), sample_n(m, link, b, 16));
}

// The oracle property: link 2's delay sequence is identical whether link 1
// samples zero, one or many deliveries in between.  With per-link streams
// this holds by construction; a shared stream would interleave and break
// it — which is exactly how bit-reproducibility would die.
TEST(LinkStreams, SamplingOneLinkNeverPerturbsAnother) {
  const LatencyModel m = model();
  LinkProfile link;
  link.jitter_sigma = 0.25;

  util::Rng solo = link_stream(kSeed, 2);
  const std::vector<double> undisturbed = sample_n(m, link, solo, 12);

  util::Rng one = link_stream(kSeed, 1);
  util::Rng two = link_stream(kSeed, 2);
  std::vector<double> interleaved;
  for (std::size_t i = 0; i < 12; ++i) {
    // A bursty neighbour: several deliveries on link 1 per one on link 2.
    sample_n(m, link, one, 1 + i % 3);
    interleaved.push_back(m.sample_link_delay(link, 4096, two));
  }
  EXPECT_EQ(interleaved, undisturbed);
}

// Pin the derivation so a refactor cannot silently remap link ids onto
// different streams (which would change every multi-region trajectory
// while still "passing" the independence properties above).
TEST(LinkStreams, StreamDerivationIsPinned) {
  const util::Rng expected(util::mix_seed(kSeed, 0x11A7, 5));
  EXPECT_EQ(link_stream(kSeed, 5).state(), expected.state());
}

}  // namespace
}  // namespace tifl::sim
