#ifndef MBQ_TESTS_VERIFY_SWEEP_H_
#define MBQ_TESTS_VERIFY_SWEEP_H_

// The differential sweep that agreement_test and cluster_test share:
// calls drawn from scripts/verify.mix (the mix the cluster smokes run
// through `mbqbench --verify`), and the assertions every sweep makes on
// core::Verify's report.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "bench/mix.h"
#include "core/calls.h"

namespace mbq::core {

/// scripts/verify.mix, parsed once; no entries when it cannot be read.
inline const bench::driver::WorkloadMix& VerifyMix() {
  static const bench::driver::WorkloadMix* mix = [] {
    std::ifstream in(MBQ_VERIFY_MIX);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = bench::driver::ParseMix(text.str(), MBQ_VERIFY_MIX);
    return new bench::driver::WorkloadMix(
        parsed.ok() ? *parsed : bench::driver::WorkloadMix{});
  }();
  return *mix;
}

/// `calls` specs over the verify mix. Call i takes entry i mod 11, so a
/// sweep of 11 calls or more draws every read kind. MaterializeCall
/// draws the parameters from `universe`, seeded by `seed`.
inline std::vector<CallSpec> ReadSweep(const ParamUniverse& universe,
                                       uint64_t seed, int calls) {
  const std::vector<bench::driver::MixEntry>& entries = VerifyMix().entries;
  EXPECT_EQ(11u, entries.size()) << "cannot read " << MBQ_VERIFY_MIX;
  std::vector<CallSpec> specs;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (int i = 0; i < calls && !entries.empty(); ++i) {
    specs.push_back(bench::driver::MaterializeCall(
        entries[i % entries.size()], universe, rng));
  }
  return specs;
}

/// The sweep drew `kinds` call kinds, every call of each agreed, and no
/// call failed, on either side.
inline void ExpectAgreement(const VerifyReport& report, size_t kinds) {
  EXPECT_EQ(kinds, report.kinds.size());
  for (const auto& [kind, tally] : report.kinds) {
    EXPECT_EQ(tally.total, tally.agreed) << CallKindName(kind);
    EXPECT_EQ(0u, tally.errors) << CallKindName(kind);
  }
  if (!report.ok()) {
    ADD_FAILURE() << "first divergence: "
                  << DivergenceToString(*report.first_divergence);
  }
}

}  // namespace mbq::core

#endif  // MBQ_TESTS_VERIFY_SWEEP_H_
