#include "hls/scheduling.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ios>
#include <string>

#include "core/error.hpp"
#include "hls/binding.hpp"

namespace icsc::hls {
namespace {

ResourceBudget unconstrained() {
  ResourceBudget b;
  b.alus = 1000;
  b.muls = 1000;
  b.divs = 1000;
  b.mem_ports = 1000;
  return b;
}

TEST(Asap, MakespanEqualsCriticalPath) {
  for (const auto& kernel : {make_fir_kernel(8), make_dot_kernel(16),
                             make_spmv_row_kernel(4)}) {
    const auto s = schedule_asap(kernel);
    EXPECT_EQ(s.makespan, kernel.critical_path()) << kernel.name();
  }
}

TEST(Asap, RespectsDependences) {
  const auto kernel = make_dot_kernel(8);
  const auto s = schedule_asap(kernel);
  EXPECT_TRUE(schedule_is_valid(kernel, s, unconstrained()));
}

TEST(Alap, RespectsDeadlineAndDependences) {
  const auto kernel = make_dot_kernel(8);
  const int deadline = kernel.critical_path() + 5;
  const auto s = schedule_alap(kernel, deadline);
  EXPECT_LE(s.makespan, deadline);
  EXPECT_TRUE(schedule_is_valid(kernel, s, unconstrained()));
}

TEST(Alap, SinksScheduleLate) {
  const auto kernel = make_fir_kernel(4);
  const auto asap = schedule_asap(kernel);
  const auto alap = schedule_alap(kernel, kernel.critical_path() + 10);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_GE(alap.start_cycle[i], asap.start_cycle[i]);
  }
}

TEST(Mobility, ZeroOnCriticalPath) {
  const auto kernel = make_fir_kernel(6);
  const auto mob = mobility(kernel);
  // The accumulation chain is the critical path: at least one op per
  // level must have zero mobility.
  int zero_count = 0;
  for (const int m : mob) {
    EXPECT_GE(m, 0);
    if (m == 0) ++zero_count;
  }
  EXPECT_GE(zero_count, 6);
}

TEST(ListScheduling, ValidUnderTightBudget) {
  const auto kernel = make_dot_kernel(16);
  ResourceBudget tight;
  tight.alus = 1;
  tight.muls = 1;
  tight.mem_ports = 1;
  const auto s = schedule_list(kernel, tight);
  EXPECT_TRUE(schedule_is_valid(kernel, s, tight));
  EXPECT_GE(s.makespan, kernel.critical_path());
}

TEST(ListScheduling, UnconstrainedMatchesAsap) {
  const auto kernel = make_dot_kernel(8);
  const auto s = schedule_list(kernel, unconstrained());
  EXPECT_EQ(s.makespan, kernel.critical_path());
}

TEST(ListScheduling, MoreResourcesNeverSlower) {
  const auto kernel = make_dot_kernel(32);
  int prev_makespan = 1 << 30;
  for (const int units : {1, 2, 4, 8, 16}) {
    ResourceBudget budget;
    budget.alus = units;
    budget.muls = units;
    budget.mem_ports = units;
    const auto s = schedule_list(kernel, budget);
    EXPECT_TRUE(schedule_is_valid(kernel, s, budget));
    EXPECT_LE(s.makespan, prev_makespan);
    prev_makespan = s.makespan;
  }
}

TEST(ListScheduling, SerializesMemoryPort) {
  const auto kernel = make_spmv_row_kernel(8);  // 24 memory ops
  ResourceBudget budget;
  budget.mem_ports = 1;
  budget.alus = 8;
  budget.muls = 8;
  const auto s = schedule_list(kernel, budget);
  EXPECT_TRUE(schedule_is_valid(kernel, s, budget));
  // 24 issues on one port: makespan at least 24.
  EXPECT_GE(s.makespan, 24);
}

TEST(ListScheduling, DividerBlocksFullLatency) {
  Kernel k("divs");
  const auto a = k.input();
  const auto b = k.input();
  const auto d1 = k.div(a, b);
  const auto d2 = k.div(b, a);
  k.output(k.add(d1, d2));
  ResourceBudget one_div;
  one_div.divs = 1;
  const auto s = schedule_list(k, one_div);
  EXPECT_TRUE(schedule_is_valid(k, s, one_div));
  // Two divisions on one non-pipelined divider: >= 2*12 + add.
  EXPECT_GE(s.makespan, 2 * op_latency(OpKind::kDiv) + 1);
}

/// FNV-1a over the start cycles of every schedule in a row, in op order.
std::uint64_t fold_start_cycles(std::uint64_t h, const Schedule& s) {
  for (const int cycle : s.start_cycle) {
    h ^= static_cast<std::uint32_t>(cycle);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The budgets of the start-cycle golden: all-serial, the default, three
/// points of the e2ebench grid, and unconstrained.
std::array<ResourceBudget, 6> golden_budgets() {
  const auto budget = [](int alus, int muls, int ports) {
    ResourceBudget b;
    b.alus = alus;
    b.muls = muls;
    b.mem_ports = ports;
    return b;
  };
  return {budget(1, 1, 1), ResourceBudget{}, budget(4, 4, 2),
          budget(8, 2, 1), budget(32, 32, 4), unconstrained()};
}

/// FNV-1a over a binding's register estimate and per-class instances.
std::uint64_t fold_binding(std::uint64_t h, const Binding& b) {
  h = (h ^ static_cast<std::uint32_t>(b.max_live_values)) * 0x100000001b3ULL;
  for (const auto& [cls, count] : b.instances) {
    h = (h ^ static_cast<std::uint32_t>(cls)) * 0x100000001b3ULL;
    h = (h ^ static_cast<std::uint32_t>(count)) * 0x100000001b3ULL;
  }
  return h;
}

struct ScheduleGolden {
  const char* kernel;
  int unroll;
  std::array<int, 6> makespans;  // one per golden_budgets() entry
  std::uint64_t start_hash;      // fold_start_cycles over all six
  std::uint64_t binding_hash;    // fold_binding over all six
};

Kernel golden_kernel(const std::string& name) {
  const int size = std::stoi(name.substr(name.find_first_of("0123456789")));
  if (name.rfind("dot", 0) == 0) return make_dot_kernel(size);
  if (name.rfind("spmv_row", 0) == 0) return make_spmv_row_kernel(size);
  return make_fir_kernel(size);
}

TEST(ListScheduling, StartCyclesGolden) {
  // Start cycles and makespans of the three e2ebench DSE kernels at their
  // e2ebench sizes, unrolled 1, 4 and 8 times, under six budgets, and the
  // register and FU-instance counts bind_kernel derives from them. The list
  // scheduler places ops least mobility first, ties to the lowest op id,
  // each on the FU instance that frees earliest; any change to that order
  // moves these pins.
  const ScheduleGolden goldens[] = {
      {"dot8", 1, {14, 13, 7, 9, 6, 6}, 0x5d2220f187a15cefULL,
       0xc77e98554c35dc8ULL},
      {"dot8", 4, {38, 37, 13, 21, 6, 6}, 0xc13ce8bf26be72a8ULL,
       0xa9ea0dc158347996ULL},
      {"dot8", 8, {70, 69, 21, 37, 8, 6}, 0xe4fb3b7ab8b293a2ULL,
       0x20b9a50d57e07402ULL},
      {"dot12", 1, {18, 17, 8, 11, 7, 7}, 0x2fafde808023c428ULL,
       0xe2ba529eb67d7517ULL},
      {"dot12", 4, {54, 53, 19, 29, 7, 7}, 0x8740819646f2e58eULL,
       0x74cd81dc7bffbd02ULL},
      {"dot12", 8, {102, 101, 33, 53, 9, 7}, 0x766dbd84abb887feULL,
       0x7e7a24a1a092b6faULL},
      {"dot16", 1, {26, 22, 10, 14, 7, 7}, 0xd80095a49c2d5c42ULL,
       0x7b8abd03ed4ae0a6ULL},
      {"dot16", 4, {74, 70, 22, 38, 9, 7}, 0x5b85a583fa3341aaULL,
       0x8da3378a5c662742ULL},
      {"dot16", 8, {138, 134, 38, 70, 12, 7}, 0xb332729574a8a55aULL,
       0x4a6210624cf8f854ULL},
      {"spmv_row6", 1, {43, 43, 27, 43, 18, 17}, 0x387abb0fe7f5ce0bULL,
       0x5c1af8e6f3e0aa8ULL},
      {"spmv_row6", 4, {166, 160, 86, 151, 46, 17}, 0xa414be8adff80338ULL,
       0x93219c44e67588fbULL},
      {"spmv_row6", 8, {330, 319, 167, 296, 83, 17}, 0x42d69299fcc2a821ULL,
       0xe268f23efea19aacULL},
      {"spmv_row8", 1, {55, 55, 33, 55, 21, 19}, 0xbb34a5f147604d38ULL,
       0xfe94612357018dacULL},
      {"spmv_row8", 4, {220, 214, 115, 199, 59, 19}, 0x4eb1800f3dff3be2ULL,
       0xfc08bae60871753bULL},
      {"spmv_row8", 8, {440, 427, 226, 396, 110, 19}, 0xbfad2d06f974fd22ULL,
       0xe42fe68964b706acULL},
      {"spmv_row10", 1, {67, 67, 39, 67, 24, 21}, 0x440db17ab92aeb23ULL,
       0x891fb6e0072d7de3ULL},
      {"spmv_row10", 4, {268, 258, 135, 247, 72, 21}, 0xc70529f9f4658fe6ULL,
       0xefd7248bdb56fd7aULL},
      {"spmv_row10", 8, {536, 515, 268, 487, 136, 21}, 0x9e35b9c65adf618fULL,
       0x52137e0e70320513ULL},
      {"fir8", 1, {11, 11, 11, 11, 11, 11}, 0xad33dc00e342bcc9ULL,
       0xe1551c55bc79e967ULL},
      {"fir8", 4, {44, 35, 16, 19, 11, 11}, 0xe4bbbc2c0f2aa26fULL,
       0xd271b7a0fc112c7dULL},
      {"fir8", 8, {88, 67, 29, 35, 11, 11}, 0x49def9bff1b46284ULL,
       0xc51fb54f431e4090ULL},
      {"fir12", 1, {15, 15, 15, 15, 15, 15}, 0x6cfd5348bc9da9b5ULL,
       0x5cf995cc369a73dfULL},
      {"fir12", 4, {60, 51, 20, 27, 15, 15}, 0x2e79149f2b95cf53ULL,
       0x58ab3efe859daad1ULL},
      {"fir12", 8, {120, 99, 37, 51, 15, 15}, 0x6956e7326515d014ULL,
       0xfe3b93bc0452ae10ULL},
      {"fir16", 1, {19, 19, 19, 19, 19, 19}, 0xaf042e065eb27c0dULL,
       0x42997b9bd175737ULL},
      {"fir16", 4, {76, 67, 24, 35, 19, 19}, 0x6fd71e833f381e17ULL,
       0x98de2bb777caf345ULL},
      {"fir16", 8, {152, 131, 45, 67, 19, 19}, 0x872cd86369b697b4ULL,
       0x7716274bfb549210ULL},
  };
  for (const auto& golden : goldens) {
    const Kernel kernel =
        unroll_kernel(golden_kernel(golden.kernel), golden.unroll);
    std::array<int, 6> makespans{};
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t binding_hash = 0xcbf29ce484222325ULL;
    const auto budgets = golden_budgets();
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const Schedule s = schedule_list(kernel, budgets[b]);
      EXPECT_TRUE(schedule_is_valid(kernel, s, budgets[b]));
      makespans[b] = s.makespan;
      hash = fold_start_cycles(hash, s);
      binding_hash = fold_binding(binding_hash, bind_kernel(kernel, s));
    }
    const std::string name =
        golden.kernel + std::string(" x") + std::to_string(golden.unroll);
    EXPECT_EQ(makespans, golden.makespans) << name;
    EXPECT_EQ(hash, golden.start_hash)
        << name << ": got 0x" << std::hex << hash;
    EXPECT_EQ(binding_hash, golden.binding_hash)
        << name << ": got 0x" << std::hex << binding_hash;
  }
}

TEST(ListScheduling, PrebuiltPlanMatchesAndMustFitTheKernel) {
  // The DSE builds one plan per unrolled kernel and schedules it under
  // every budget; each schedule equals the plan-free call's.
  const Kernel kernel = unroll_kernel(make_spmv_row_kernel(6), 4);
  const ListSchedulePlan plan(kernel);
  EXPECT_EQ(plan.mobility(), mobility(kernel));
  for (const auto& budget : golden_budgets()) {
    EXPECT_EQ(schedule_list(kernel, plan, budget).start_cycle,
              schedule_list(kernel, budget).start_cycle);
  }
  EXPECT_THROW(schedule_list(make_fir_kernel(4), plan, ResourceBudget{}),
               core::Error);
}

TEST(MinII, ReflectsBottleneckResource) {
  const auto kernel = make_dot_kernel(8);  // 8 muls, 7 adds
  ResourceBudget budget;
  budget.muls = 2;
  budget.alus = 8;
  budget.mem_ports = 1;
  EXPECT_EQ(min_initiation_interval(kernel, budget), 4);  // ceil(8/2)
  budget.muls = 8;
  EXPECT_EQ(min_initiation_interval(kernel, budget), 1);
}

TEST(Binding, ValidAndMinimal) {
  const auto kernel = make_dot_kernel(16);
  ResourceBudget budget;
  budget.alus = 4;
  budget.muls = 4;
  const auto s = schedule_list(kernel, budget);
  const auto b = bind_kernel(kernel, s);
  EXPECT_TRUE(binding_is_valid(kernel, s, b));
  // Left-edge never uses more instances than the budget allows.
  EXPECT_LE(b.instances.at(FuClass::kMul), 4);
  EXPECT_LE(b.instances.at(FuClass::kAlu), 4);
  EXPECT_GT(b.max_live_values, 0);
}

TEST(Binding, SerialScheduleSharesOneUnit) {
  const auto kernel = make_fir_kernel(8);
  ResourceBudget serial;
  serial.alus = 1;
  serial.muls = 1;
  const auto s = schedule_list(kernel, serial);
  const auto b = bind_kernel(kernel, s);
  EXPECT_TRUE(binding_is_valid(kernel, s, b));
  EXPECT_EQ(b.instances.at(FuClass::kMul), 1);
  EXPECT_EQ(b.instances.at(FuClass::kAlu), 1);
}

TEST(Binding, SerializedMultipliersHoldInputsLiveLonger) {
  // With few multipliers the kernel's input operands wait many cycles for
  // their turn, so the peak number of simultaneously live values rises as
  // the multiplier budget shrinks.
  const auto kernel = make_dot_kernel(32);
  int prev_live = 0;
  for (const int muls : {16, 4, 1}) {
    ResourceBudget budget;
    budget.muls = muls;
    budget.alus = 4;
    const auto s = schedule_list(kernel, budget);
    const auto b = bind_kernel(kernel, s);
    EXPECT_GE(b.max_live_values, prev_live) << "muls=" << muls;
    prev_live = b.max_live_values;
  }
  EXPECT_GT(prev_live, 32);  // 1-mul case exceeds the 16-mul case (32)
}

TEST(Binding, LiveValuesOnAFarApartCycleAxis) {
  // A hand-made schedule whose cycles lie a million apart: the live sweep
  // holds only the cycles in use, and counts the same peak as on a
  // compact schedule.
  Kernel k("sparse");
  const auto a = k.input();
  const auto b = k.input();
  const auto sum = k.add(a, b);
  k.output(k.mul(sum, a));
  Schedule compact;
  compact.start_cycle = {0, 0, 1, 2, 5};
  Schedule sparse;
  sparse.start_cycle = {0, 0, 1'000'000, 2'000'000, 3'000'000};
  // a and b live until the add; then the sum and a until the mul.
  EXPECT_EQ(bind_kernel(k, compact).max_live_values, 2);
  EXPECT_EQ(bind_kernel(k, sparse).max_live_values, 2);
}

}  // namespace
}  // namespace icsc::hls
