// Client response-latency model.
//
// Fig. 1a of the paper shows per-round training time growing near-linearly
// in sample count and in 1/CPUs, plus a floor at small workloads — exactly
// an affine model:
//
//     L_i = epochs * samples_i * seconds_per_sample / cpus_i
//           + fixed_overhead + comm_seconds,            (jittered)
//
// with multiplicative lognormal jitter on the compute term standing in for
// OS noise.  `seconds_per_sample` and `fixed_overhead` are per-model
// constants; the presets below are fit to the magnitudes reported in
// Fig. 1a (CIFAR-10 CNN: ~4 s for 500 samples on 4 CPUs, ~250 s for 5000
// samples on 1/5 CPU).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/resource_profile.h"
#include "util/rng.h"

namespace tifl::sim {

struct CostModel {
  double seconds_per_sample = 0.01;  // at 1 CPU, per epoch
  double fixed_overhead = 3.0;       // setup + serialization + framework
};

// One parent↔child link of the aggregator tree (fl/hier): a propagation
// floor plus a bandwidth-limited transfer term, so shipping a model
// between aggregation levels costs virtual time proportional to its size.
struct LinkProfile {
  double latency_seconds = 0.05;  // one-way propagation + protocol floor
  double bandwidth_mbps = 100.0;  // serialization rate for the payload
  double jitter_sigma = 0.0;      // lognormal sigma on the transfer term
};

class LatencyModel {
 public:
  explicit LatencyModel(CostModel cost = {}) : cost_(cost) {}

  // Expected (jitter-free) response latency.
  double expected_latency(const ResourceProfile& profile,
                          std::size_t samples, std::size_t epochs) const;

  // One observed latency draw with lognormal jitter.
  double sample_latency(const ResourceProfile& profile, std::size_t samples,
                        std::size_t epochs, util::Rng& rng) const;

  // Expected (jitter-free) one-way delivery delay of `payload_bytes` over
  // `link`: latency floor + bytes * 8 / bandwidth.
  double expected_link_delay(const LinkProfile& link,
                             std::size_t payload_bytes) const;

  // One observed delivery delay.  When link.jitter_sigma > 0 this draws
  // exactly one mean-preserving lognormal per call (multiplying the
  // transfer term), independent of payload size — callers rely on the
  // one-draw-per-delivery stream alignment for resume determinism.
  double sample_link_delay(const LinkProfile& link, std::size_t payload_bytes,
                           util::Rng& rng) const;

  const CostModel& cost() const { return cost_; }

 private:
  CostModel cost_;
};

// The dedicated RNG stream of one tree link, derived by mix_seed so that
// sampling delays on one link never perturbs another link's stream (and
// therefore no other node's delivery times) regardless of event
// interleaving.  `link_id` is the child node's id — each
// parent↔child edge is owned by its child end.
util::Rng link_stream(std::uint64_t run_seed, std::uint64_t link_id);

// Calibrated magnitudes per paper workload (see header comment).
CostModel cifar_cost_model();    // heavy CNN
CostModel mnist_cost_model();    // light CNN
CostModel femnist_cost_model();  // LEAF CNN

}  // namespace tifl::sim
