// Snapshot container hardening: every single-bit flip and every
// truncation of a golden snapshot must surface as a clean
// std::runtime_error — never a crash, hang, giant allocation or silently
// wrong payload.  Plus round-trip equality for the serialized substates
// the engine snapshot is built from: RNG streams, event-queue horizon,
// churn streams, fault streams and stateful policy state.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/adaptive_policy.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "sim/churn_model.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/serial.h"

namespace tifl {
namespace {

std::string golden_payload() {
  util::ByteSink sink;
  sink.put_u64(0xDEADBEEFCAFEF00DULL);
  sink.put_f64(3.14159);
  sink.put_string("tier state");
  sink.put_f32_vec({1.5f, -2.5f, 0.0f});
  sink.put_size_vec({7, 8, 9});
  return sink.take();
}

std::string write_golden(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fl::save_snapshot(path, golden_payload());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FlSnapshot, RoundTripsPayloadBytes) {
  const std::string path = write_golden("roundtrip.snap");
  EXPECT_EQ(fl::load_snapshot(path), golden_payload());
}

TEST(FlSnapshot, GoldenFileBytesArePinned) {
  // The whole version-2 file for golden_payload(), header and CRC
  // included, as written before the codec moved to bulk copies and a
  // sliced CRC.  Any drift of the on-disk format fails here.
  constexpr std::string_view kGoldenHex =
      "5449464c534e5031020000005600000000000000016502b60df0fecaefbeadde"
      "6e861bf0f92109400a000000000000007469657220737461746503000000000000"
      "000000c03f000020c00000000003000000000000000700000000000000080000"
      "00000000000900000000000000";
  const std::string bytes = slurp(write_golden("pinned.snap"));
  std::string hex;
  for (unsigned char c : bytes) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xF];
  }
  EXPECT_EQ(hex, kGoldenHex);
}

TEST(FlSnapshot, OverwriteIsAtomicReplacement) {
  const std::string path = write_golden("overwrite.snap");
  util::ByteSink next;
  next.put_string("second generation");
  fl::save_snapshot(path, next.bytes());
  EXPECT_EQ(fl::load_snapshot(path), next.bytes());
}

TEST(FlSnapshot, MissingFileThrows) {
  EXPECT_THROW(fl::load_snapshot(::testing::TempDir() + "/absent.snap"),
               std::runtime_error);
}

TEST(FlSnapshot, EveryBitFlipIsRejected) {
  const std::string path = write_golden("bitflip.snap");
  const std::string pristine = slurp(path);
  ASSERT_FALSE(pristine.empty());
  const std::string victim = ::testing::TempDir() + "/bitflip_victim.snap";
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = pristine;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ (1u << bit));
      spit(victim, corrupt);
      EXPECT_THROW(fl::load_snapshot(victim), std::runtime_error)
          << "byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(FlSnapshot, EveryTruncationIsRejected) {
  const std::string path = write_golden("truncate.snap");
  const std::string pristine = slurp(path);
  const std::string victim = ::testing::TempDir() + "/truncate_victim.snap";
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    spit(victim, pristine.substr(0, keep));
    EXPECT_THROW(fl::load_snapshot(victim), std::runtime_error)
        << "accepted at " << keep << " of " << pristine.size() << " bytes";
  }
}

TEST(FlSnapshot, TrailingGarbageIsRejected) {
  const std::string path = write_golden("trailing.snap");
  spit(::testing::TempDir() + "/trailing_victim.snap",
       slurp(path) + "extra");
  EXPECT_THROW(
      fl::load_snapshot(::testing::TempDir() + "/trailing_victim.snap"),
      std::runtime_error);
}

// --- SnapshotWriter ------------------------------------------------------------

std::string payload_of(std::size_t generation) {
  util::ByteSink sink;
  sink.put_u64(generation);
  sink.put_f32_vec(std::vector<float>(1000 + generation, 0.5f));
  return sink.take();
}

// Threads of this process, as Linux lists them.
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(SnapshotWriter, NoCheckpointStartsNoThread) {
  const std::string path = ::testing::TempDir() + "/writer_idle.snap";
  std::remove(path.c_str());
  const std::size_t threads = thread_count();
  fl::SnapshotWriter writer(path);
  writer.flush();
  EXPECT_EQ(thread_count(), threads);
  EXPECT_FALSE(std::ifstream(path).good());
  writer.write(0.0, 0, 0, [](util::ByteSink& sink) { sink.put_u64(1); });
  // The first write starts it (a sanitizer runtime may add its own).
  EXPECT_GT(thread_count(), threads);
  writer.flush();
}

TEST(SnapshotWriter, FlushLeavesTheLastPayloadOnDisk) {
  const std::string path = ::testing::TempDir() + "/writer_last.snap";
  obs::Registry::global().reset();
  fl::SnapshotWriter writer(path);
  std::uint64_t payload_bytes = 0;
  for (std::size_t generation = 0; generation < 5; ++generation) {
    writer.write(static_cast<double>(generation), generation, generation,
                 [&](util::ByteSink& sink) {
                   const std::string payload = payload_of(generation);
                   sink.put_bytes(payload.data(), payload.size());
                 });
    payload_bytes += payload_of(generation).size();
  }
  writer.flush();
  EXPECT_EQ(fl::load_snapshot(path), payload_of(4));
  // checkpoint.bytes counts the header save_snapshot really wrote.
  const std::uint64_t header_bytes =
      std::filesystem::file_size(path) - payload_of(4).size();
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("checkpoint.writes").value(), 5u);
  EXPECT_EQ(reg.counter("checkpoint.bytes").value(),
            5 * header_bytes + payload_bytes);
  EXPECT_GT(reg.counter("checkpoint.loop_ns").value(), 0u);
  EXPECT_GT(reg.counter("checkpoint.write_ns").value(), 0u);
}

TEST(SnapshotWriter, DestructorWaitsForTheWriteInFlight) {
  const std::string path = ::testing::TempDir() + "/writer_unwind.snap";
  std::remove(path.c_str());
  {
    fl::SnapshotWriter writer(path);
    writer.write(0.0, 0, 0, [](util::ByteSink& sink) {
      const std::string payload = payload_of(7);
      sink.put_bytes(payload.data(), payload.size());
    });
  }
  EXPECT_EQ(fl::load_snapshot(path), payload_of(7));
}

TEST(SnapshotWriter, WriteErrorSurfacesAtTheNextHandOffOrFlush) {
  const std::string path = ::testing::TempDir() + "/no_such_dir/w.snap";
  const auto encode = [](util::ByteSink& sink) { sink.put_u64(1); };
  {
    fl::SnapshotWriter writer(path);
    writer.write(0.0, 0, 0, encode);  // fails on the writer thread
    EXPECT_THROW(writer.flush(), std::runtime_error);
    writer.flush();  // the error is reported once
  }
  {
    fl::SnapshotWriter writer(path);
    writer.write(0.0, 0, 0, encode);
    EXPECT_THROW(writer.write(1.0, 1, 1, encode), std::runtime_error);
  }
}

// --- substate round trips -----------------------------------------------------

TEST(FlSnapshot, OlderFormatVersionIsRejected) {
  // A well-formed version-1 file (valid magic, size and CRC) is refused
  // on its version alone: the version-2 payload layouts differ.
  const std::string payload = golden_payload();
  util::ByteSink file;
  file.put_bytes(fl::kSnapshotMagic, sizeof(fl::kSnapshotMagic));
  file.put_u32(1);
  file.put_u64(payload.size());
  file.put_u32(util::crc32(payload));
  file.put_bytes(payload.data(), payload.size());
  const std::string path = ::testing::TempDir() + "/version1.snap";
  spit(path, file.bytes());
  try {
    fl::load_snapshot(path);
    FAIL() << "version-1 snapshot was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported version 1"),
              std::string::npos)
        << error.what();
  }
}

TEST(FlSnapshot, RngStreamRoundTripsThroughStateWords) {
  util::Rng rng(util::mix_seed(42, 7));
  for (int i = 0; i < 100; ++i) rng.next();  // advance mid-stream
  const std::array<std::uint64_t, 4> words = rng.state();

  util::Rng restored(1);  // deliberately different seed
  restored.set_state(words);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next(), restored.next());
  }
}

TEST(FlSnapshot, EventQueueHorizonRoundTrips) {
  sim::EventQueue queue;
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    queue.schedule(rng.uniform() * 10.0, /*kind=*/i % 4,
                   /*actor=*/static_cast<std::uint64_t>(i % 16));
  }
  std::vector<sim::Event> drained;
  queue.pop_batch(drained);  // advance the clock mid-run

  util::ByteSink sink;
  queue.save_state(sink);
  util::ByteSource source(sink.bytes());
  sim::EventQueue restored;
  restored.restore_state(source);
  EXPECT_EQ(restored.now(), queue.now());
  EXPECT_EQ(restored.size(), queue.size());
  // The seq counter round-trips too: the next schedule gets the same seq.
  EXPECT_EQ(restored.schedule(1.0, 0, 0), queue.schedule(1.0, 0, 0));
  while (!queue.empty()) {
    ASSERT_FALSE(restored.empty());
    const sim::Event a = queue.pop();
    const sim::Event b = restored.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.actor, b.actor);
  }
  EXPECT_TRUE(restored.empty());
}

TEST(FlSnapshot, ChurnModelStreamRoundTrips) {
  sim::ChurnConfig config;
  config.join_rate = 0.1;
  config.leave_rate = 0.1;
  config.slowdown_rate = 0.2;
  sim::ChurnModel churn(config, /*run_seed=*/17);
  for (int i = 0; i < 25; ++i) churn.next();

  util::ByteSink sink;
  churn.save_state(sink);

  sim::ChurnModel restored(config, /*run_seed=*/17);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);
  for (int i = 0; i < 50; ++i) {
    const std::optional<sim::LifecycleEvent> a = churn.next();
    const std::optional<sim::LifecycleEvent> b = restored.next();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->time, b->time);
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->pick, b->pick);
    EXPECT_EQ(a->factor, b->factor);
  }
}

TEST(FlSnapshot, FaultModelStreamRoundTrips) {
  sim::FaultConfig config;
  config.loss_prob = 0.3;
  sim::FaultModel fault(config, /*run_seed=*/23);
  for (int i = 0; i < 40; ++i) fault.lose_update();

  util::ByteSink sink;
  fault.save_state(sink);

  sim::FaultModel restored(config, /*run_seed=*/23);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fault.lose_update(), restored.lose_update()) << "draw " << i;
  }
}

TEST(FlSnapshot, AdaptivePolicyStateRoundTrips) {
  core::TierInfo tiers;
  tiers.members = testing::two_tiers(10);
  tiers.avg_latency = {1.0, 2.0};
  core::AdaptiveConfig config;
  config.clients_per_round = 4;
  config.interval = 2;
  core::AdaptiveTierPolicy policy(tiers, config, /*total_rounds=*/40);

  // Drive the credit/probability state away from its initial values.
  for (std::size_t round = 0; round < 12; ++round) {
    fl::RoundFeedback feedback;
    feedback.round = round;
    feedback.submitting_tier = static_cast<int>(round % 2);
    feedback.tier_accuracies = {0.5 + 0.01 * static_cast<double>(round),
                                0.4 + 0.02 * static_cast<double>(round)};
    policy.observe(feedback);
  }

  util::ByteSink sink;
  policy.save_state(sink);

  core::AdaptiveTierPolicy restored(tiers, config, /*total_rounds=*/40);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);

  // Identical RNG streams + identical restored state => identical picks.
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  for (std::size_t round = 12; round < 24; ++round) {
    fl::SelectionContext context_a;
    context_a.round = round;
    context_a.tier = static_cast<int>(round % 2);
    context_a.candidates = tiers.members[context_a.tier];
    context_a.rng = &rng_a;
    fl::SelectionContext context_b = context_a;
    context_b.rng = &rng_b;
    EXPECT_EQ(policy.select(context_a).clients,
              restored.select(context_b).clients)
        << "round " << round;
  }
}

}  // namespace
}  // namespace tifl
