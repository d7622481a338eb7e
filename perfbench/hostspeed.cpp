// The host-speed probe: a fixed CPU load that calls nothing in the
// library, so no change to the library can make it faster or slower.
//
// On a shared host the slowdown is uneven: code with many independent
// multiplies (the Ed25519 field arithmetic that dominates `steady`)
// loses most when another guest runs on the same physical core, while
// a serial multiply chain hardly moves. So a pass mixes the three
// kinds of work the workloads do, in about equal time shares: wide
// 5-limb multiplies in radix 2^51, data-dependent loads from a 2 MiB
// table (the DAG and block maps), and an ordered map of short strings
// (allocator and pointer chasing).
#include <cstdint>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

// Run a pass when this much wall time has gone by since the last one:
// about 3% of a phase goes to the probe.
constexpr std::int64_t kProbeEveryNs = 10'000'000;

using u128 = unsigned __int128;

std::uint64_t Lcg(std::uint64_t* x) {
  *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
  return *x;
}

// a <- a * b mod 2^255 - 19, limbs of 51 bits, loosely reduced.
void MulLimbs(std::uint64_t* a, const std::uint64_t* b) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 51) - 1;
  const std::uint64_t b1 = 19 * b[1], b2 = 19 * b[2], b3 = 19 * b[3],
                      b4 = 19 * b[4];
  const u128 r0 = (u128)a[0] * b[0] + (u128)a[1] * b4 + (u128)a[2] * b3 +
                  (u128)a[3] * b2 + (u128)a[4] * b1;
  u128 r1 = (u128)a[0] * b[1] + (u128)a[1] * b[0] + (u128)a[2] * b4 +
            (u128)a[3] * b3 + (u128)a[4] * b2;
  u128 r2 = (u128)a[0] * b[2] + (u128)a[1] * b[1] + (u128)a[2] * b[0] +
            (u128)a[3] * b4 + (u128)a[4] * b3;
  u128 r3 = (u128)a[0] * b[3] + (u128)a[1] * b[2] + (u128)a[2] * b[1] +
            (u128)a[3] * b[0] + (u128)a[4] * b4;
  u128 r4 = (u128)a[0] * b[4] + (u128)a[1] * b[3] + (u128)a[2] * b[2] +
            (u128)a[3] * b[1] + (u128)a[4] * b[0];
  r1 += static_cast<std::uint64_t>(r0 >> 51);
  a[0] = static_cast<std::uint64_t>(r0) & kMask;
  r2 += static_cast<std::uint64_t>(r1 >> 51);
  a[1] = static_cast<std::uint64_t>(r1) & kMask;
  r3 += static_cast<std::uint64_t>(r2 >> 51);
  a[2] = static_cast<std::uint64_t>(r2) & kMask;
  r4 += static_cast<std::uint64_t>(r3 >> 51);
  a[3] = static_cast<std::uint64_t>(r3) & kMask;
  a[0] += 19 * static_cast<std::uint64_t>(r4 >> 51);
  a[4] = static_cast<std::uint64_t>(r4) & kMask;
}

}  // namespace

HostProbe::HostProbe() : table_(std::size_t{1} << 18) {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i;
}

void HostProbe::Tick() {
  if (NowNs() - last_pass_end_ns_ >= kProbeEveryNs) Pass();
}

void HostProbe::Pass() {
  const std::int64_t t0 = NowNs();
  std::uint64_t acc = 0;
  // Four independent products per round, as in a point addition.
  std::uint64_t f[4][5];
  for (auto& fe : f) {
    for (std::uint64_t& limb : fe) limb = Lcg(&x_) >> 13;
  }
  for (int round = 0; round < 1'500; ++round) {
    for (int j = 0; j < 4; ++j) MulLimbs(f[j], f[(j + 1) & 3]);
  }
  acc += f[0][0] ^ f[1][1] ^ f[2][2] ^ f[3][3];
  const std::size_t mask = table_.size() - 1;
  for (int i = 0; i < 15'000; ++i) {
    std::uint64_t& slot = table_[Lcg(&x_) >> 20 & mask];
    slot += x_;
    acc += slot;
  }
  std::map<std::uint64_t, std::string> m;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t k = Lcg(&x_);
    m[k >> 52] = std::string(24 + (k & 63), 'a');
  }
  for (const auto& [k, v] : m) acc += k + v.size();
  sink_ = sink_ + acc;
  last_pass_end_ns_ = NowNs();
  own_ns_ += last_pass_end_ns_ - t0;
  ++passes_;
}

HostProbe::Mark HostProbe::Begin() const {
  return {NowNs(), own_ns_, passes_};
}

HostProbe::PhaseTime HostProbe::End(const Mark& m, std::int64_t excluded_ns) {
  const std::int64_t wall_ns =
      NowNs() - m.wall_ns - (own_ns_ - m.own_ns) - excluded_ns;
  Pass();
  const double pass_ns = static_cast<double>(own_ns_ - m.own_ns) /
                         static_cast<double>(passes_ - m.passes);
  PhaseTime t;
  t.wall_s = static_cast<double>(wall_ns) / 1e9;
  t.ref_s = t.wall_s * (kReferencePassNs / pass_ns);
  t.pass_us = pass_ns / 1e3;
  return t;
}

}  // namespace perfbench
