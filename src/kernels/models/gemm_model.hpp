// The GEMM analytical model: the decoded parameters plus a device in,
// a launch profile out (nullopt for device-invalid launches). It is a
// header of pure functions over header-only gpusim pieces, kept apart
// from GemmBenchmark so the problem constants (gemm.hpp re-exports
// them) and the arithmetic live in one place.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "gpusim/device.hpp"
#include "gpusim/launch_model.hpp"
#include "gpusim/perf_utils.hpp"

namespace bat::kernels::models {

inline constexpr int kGemmM = 4096;
inline constexpr int kGemmN = 4096;
inline constexpr int kGemmK = 4096;
inline constexpr int kGemmKwg = 32;  // k-loop blocking factor (fixed)

/// `P` supplies the decoded configuration as int members
/// mwg, nwg, mdimc, ndimc, mdima, ndimb, vwm, vwn, sa, sb
/// (GemmParams on the host, a baked constexpr struct in emitted code).
/// Returns the launch profile, or nullopt for a device-invalid launch
/// (GEMM has none, but the contract is uniform across the three models).
template <typename P>
[[nodiscard]] inline std::optional<gpusim::KernelProfile> gemm_profile(
    const P& p, const gpusim::DeviceSpec& device) {
  using gpusim::KernelProfile;

  const int threads = p.mdimc * p.ndimc;
  const int wpt_m = p.mwg / p.mdimc;  // outputs per thread in M
  const int wpt_n = p.nwg / p.ndimc;  // outputs per thread in N
  const std::uint64_t grid =
      gpusim::div_up(kGemmM, p.mwg) * gpusim::div_up(kGemmN, p.nwg);

  // Register estimate: accumulators dominate; staging buffers and index
  // arithmetic add a base cost. Wide vectors hold operands in registers.
  double regs = 28.0 + wpt_m * wpt_n + 1.5 * (wpt_m * p.vwm + wpt_n * p.vwn);
  if (device.arch == gpusim::Architecture::kAmpere) regs += 4.0;  // nvcc delta
  // Spilling is graded: a handful of spilled values live in L1 and cost
  // little; deep spills thrash local memory.
  const double excess_regs =
      std::max(0.0, regs - device.max_registers_per_thread);
  const double spill_factor = 1.0 + std::min(0.6, 0.025 * excess_regs);
  const bool spills = excess_regs > 0.0;
  if (spills) regs = device.max_registers_per_thread;

  // Shared-memory tiles for A and B (KWG-deep).
  const int smem = (p.sa ? kGemmKwg * p.mwg * 4 : 0) +
                   (p.sb ? kGemmKwg * p.nwg * 4 : 0);

  const double flops = 2.0 * kGemmM * kGemmN * static_cast<double>(kGemmK);

  // --- DRAM traffic ---------------------------------------------------
  // Block-level algorithm: each (MWG x NWG) block streams A (MWG x K) and
  // B (K x NWG). Without shared-memory staging the tile is re-fetched per
  // k-step; L1 absorbs part of the re-use, leaving a multiplier.
  const double a_traffic = static_cast<double>(kGemmM) * kGemmK * 4.0 *
                           (static_cast<double>(kGemmN) / p.nwg);
  const double b_traffic = static_cast<double>(kGemmK) * kGemmN * 4.0 *
                           (static_cast<double>(kGemmM) / p.mwg);
  const double c_traffic = 2.0 * kGemmM * static_cast<double>(kGemmN) * 4.0;
  const double a_nosmem_penalty = p.sa ? 1.0 : std::min(3.0, 9.0 / p.vwm);
  const double b_nosmem_penalty = p.sb ? 1.0 : std::min(3.0, 9.0 / p.vwn);

  // Blocks of the same wave share row/column panels: a wave of W blocks
  // arranged ~sqrt(W) x sqrt(W) touches only ~sqrt(W) distinct A panels,
  // so the L2 serves the rest. The reuse deepens with the wave size
  // (device dependent) and collapses if the panel set outgrows the L2.
  const double wave_blocks = 2.0 * device.sm_count;
  double panel_share = std::clamp(2.5 / std::sqrt(wave_blocks), 0.15, 1.0);
  const double panel_bytes =
      std::sqrt(wave_blocks) * (p.mwg + p.nwg) * 0.5 * kGemmK * 4.0;
  panel_share *= 1.0 + gpusim::cache_miss_fraction(
                           panel_bytes, device.l2_cache_bytes, 0.0);

  double dram_bytes =
      (a_traffic * a_nosmem_penalty + b_traffic * b_nosmem_penalty) *
          std::min(1.0, panel_share) +
      c_traffic;
  if (spills) dram_bytes += flops * 0.04 * (spill_factor - 1.0);

  // Coalescing of the staging loads: contiguous when the load-thread
  // shape times the vector width spans the tile width.
  const double stride_a =
      std::max(1.0, static_cast<double>(p.mwg) / (p.mdima * p.vwm));
  const double stride_b =
      std::max(1.0, static_cast<double>(p.nwg) / (p.ndimb * p.vwn));
  const double coalesce =
      0.5 * (gpusim::coalescing_efficiency(stride_a, 4.0 * p.vwm) +
             gpusim::coalescing_efficiency(stride_b, 4.0 * p.vwn));
  const double mem_eff =
      std::clamp(coalesce * gpusim::vector_load_boost(std::min(p.vwm, p.vwn)),
                 0.30, 1.0);

  // --- Shared-memory traffic -------------------------------------------
  // Each FMA reads one A and one B operand; register tiling re-uses each
  // fetched operand wpt times.
  // Register tiling re-uses each fetched operand wpt times, and 64/128-bit
  // shared loads (VWM/VWN wide) cut the transaction count — on Ampere,
  // whose FP32 rate doubled while shared bandwidth did not, wide vectors
  // are what keep the smem pipe off the critical path.
  double smem_bytes = 0.0;
  const double vec_a = 1.0 + 0.6 * (p.vwm - 1);
  const double vec_b = 1.0 + 0.6 * (p.vwn - 1);
  if (p.sa) {
    smem_bytes += (flops / 2.0) * 4.0 / (std::max(1, wpt_n) * vec_a);
  }
  if (p.sb) {
    smem_bytes += (flops / 2.0) * 4.0 / (std::max(1, wpt_m) * vec_b);
  }
  // Mismatched staging dimensions cause bank conflicts on the write side.
  double conflict = 1.0;
  if (p.sa && p.mdima != p.mdimc) conflict += 0.05;
  if (p.sb && p.ndimb != p.ndimc) conflict += 0.05;
  smem_bytes *= gpusim::bank_conflict_factor(conflict);

  // --- Compute efficiency ----------------------------------------------
  // Deep register tiles approach peak; tiny tiles pay loop overhead.
  const double tile_depth = static_cast<double>(wpt_m * wpt_n);
  double compute_eff = 0.50 + 0.50 * (1.0 - 1.0 / (1.0 + tile_depth / 12.0));
  // Very deep register tiles stall the scoreboard even before spilling.
  compute_eff /= 1.0 + 0.015 * std::max(0.0, tile_depth - 72.0);
  // Scalar staging loads occupy issue slots the FMAs need; 128-bit loads
  // amortize them.
  compute_eff /= 1.0 + 0.055 * (4.0 / p.vwm + 4.0 / p.vwn - 2.0);
  // Warp-scheduler sweet spot around 256 threads per block.
  compute_eff *=
      1.0 - 0.09 * std::abs(std::log2(static_cast<double>(threads) / 256.0));
  // Each mismatched staging shape costs an extra synchronization stage.
  if (p.sa && p.mdima != p.mdimc) compute_eff *= 0.97;
  if (p.sb && p.ndimb != p.ndimc) compute_eff *= 0.97;
  compute_eff /= spill_factor;
  compute_eff = std::clamp(compute_eff, 0.05, 1.0);

  KernelProfile prof;
  prof.grid_blocks = grid;
  prof.block_threads = threads;
  prof.regs_per_thread = static_cast<int>(regs);
  prof.smem_per_block = smem;
  prof.flops = flops;
  prof.dram_bytes = dram_bytes;
  prof.smem_bytes = smem_bytes;
  prof.mem_efficiency = mem_eff;
  prof.compute_efficiency = compute_eff;
  prof.ilp = tile_depth;
  return prof;
}

}  // namespace bat::kernels::models
