// The paper's four parallel execution strategies (section 3), realized as
// cost-faithful replays of a branch-and-bound run over the simulated
// device(s):
//
//  S1 GpuOnly        — tree AND LP solves resident on the device; fails
//                      honestly (OOM) when the tree outgrows device memory;
//                      tree manipulation pays divergent-kernel prices.
//  S2 CpuOrchestrated— tree in host memory, device only accelerates each
//                      node's LP; bound/basis deltas cross the bus per
//                      node; host tree handling serializes with the device.
//  S3 Hybrid         — as S2 but host work (tree, cuts, heuristics)
//                      overlaps device work (many-core CPU + GPU).
//  S4 BigMip         — the LP matrix is column-partitioned over several
//                      devices; every simplex iteration is a distributed
//                      operation (pricing in parallel, basis ops on device
//                      0, broadcasts in between). The only strategy that
//                      works when one LP matrix exceeds a single device.
//
// All four solve the SAME search (numerics on the host), so they reach the
// same optimum; what differs — and what experiment E1 measures — is the
// simulated time, transfer volume, and memory footprint.
#pragma once

#include <string>

#include "gpu/device.hpp"
#include "mip/solver.hpp"

namespace gpumip::parallel {

enum class Strategy { S1_GpuOnly, S2_CpuOrchestrated, S3_Hybrid, S4_BigMip };

const char* strategy_name(Strategy strategy) noexcept;

struct StrategyConfig {
  gpu::CostModelConfig device;  ///< per-device architecture
  int devices = 1;              ///< S4 shards across this many devices
  mip::MipOptions mip;
};

struct StrategyReport {
  Strategy strategy = Strategy::S2_CpuOrchestrated;
  mip::MipResult result;
  bool completed = false;        ///< false: strategy infeasible on this hw
  std::string failure;           ///< why (e.g. device OOM for the tree)
  double sim_seconds = 0.0;      ///< simulated end-to-end time
  double device_seconds = 0.0;   ///< device busy time (max over devices)
  double host_seconds = 0.0;     ///< host compute time
  double network_seconds = 0.0;  ///< device-to-device communication (S4)
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t transfers = 0;
  std::uint64_t device_peak_bytes = 0;  ///< max over devices
};

/// Runs `strategy` on `model`. The search itself always completes (host
/// numerics); `completed=false` plus `failure` indicate the strategy could
/// not have executed on the configured hardware (e.g. S1 tree OOM), with
/// costs reported up to the failure point.
StrategyReport run_strategy(Strategy strategy, const mip::MipModel& model,
                            const StrategyConfig& config);

/// Bytes needed to keep one LP-relaxation matrix (dense) plus basis inverse
/// on a device — the per-problem footprint strategies S1-S3 must fit.
std::uint64_t lp_device_footprint(const lp::StandardForm& form);

}  // namespace gpumip::parallel
