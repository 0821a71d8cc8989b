// Reproduces the Sec. IV energy story: analog IMC minimises data movement
// (Fig. 2's progression from von-Neumann to in-memory computing), digital
// SRAM IMC trades some of that efficiency for exactness ([2], [8]), and a
// conventional digital datapath pays the full SRAM-fetch tax per MAC. Also
// breaks down where analog MVM energy goes (the A/D conversion bottleneck
// [11]) across ADC resolutions and array sizes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/table.hpp"
#include "imc/dimc.hpp"
#include "imc/pipeline.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::imc;

core::TensorF random_weights(std::size_t out, std::size_t in,
                             std::uint64_t seed) {
  core::Rng rng(seed);
  core::TensorF w({out, in});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  return w;
}

void BM_DimcMvm(benchmark::State& state) {
  const auto w = random_weights(64, 64, 1);
  DimcMacro macro(w, DimcConfig{});
  std::vector<float> x(64, 0.4F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(macro.matvec(x));
  }
}
BENCHMARK(BM_DimcMvm);

void print_tables() {
  std::printf("\n=== Sec. IV: energy per MAC, analog IMC vs DIMC vs digital ===\n");
  core::TextTable t({"backend", "pJ/op", "relative"});
  // Analog crossbar 64x64, one MVM, amortised.
  CrossbarConfig analog_cfg;
  const auto w = random_weights(64, 64, 3);
  Crossbar xbar(w, analog_cfg);
  const double programming = xbar.energy().total_pj();
  std::vector<float> x(64, 0.4F);
  const int mvms = 100;
  for (int i = 0; i < mvms; ++i) xbar.matvec(x);
  const double analog_per_op = (xbar.energy().total_pj() - programming) /
                               (static_cast<double>(mvms) * xbar.ops_per_mvm());

  DimcMacro macro(w, DimcConfig{});
  for (int i = 0; i < mvms; ++i) macro.matvec(x);
  const double dimc_per_op = macro.energy().total_pj() /
                             (static_cast<double>(mvms) * macro.ops_per_mvm());
  const double digital_per_op = digital_baseline_mac_energy_pj() / 2.0;

  t.add_row({"analog RRAM crossbar (64x64, 8b ADC)",
             core::TextTable::num(analog_per_op, 4), "1.0x"});
  t.add_row({"SRAM digital IMC (4b weights)", core::TextTable::num(dimc_per_op, 4),
             core::TextTable::num(dimc_per_op / analog_per_op, 1) + "x"});
  t.add_row({"conventional digital (SRAM fetch + MAC)",
             core::TextTable::num(digital_per_op, 4),
             core::TextTable::num(digital_per_op / analog_per_op, 1) + "x"});
  std::printf("%s", t.to_string().c_str());

  std::printf("\n=== Analog MVM energy breakdown vs ADC bits (64x64) ===\n");
  core::TextTable bt({"ADC bits", "array reads (pJ/MVM)", "ADC (pJ/MVM)",
                      "ADC share"});
  for (const int bits : {4, 6, 8, 10, 12}) {
    CrossbarConfig config;
    config.adc_bits = bits;
    Crossbar xb(w, config);
    xb.matvec(x);
    const double reads = xb.energy().component_pj("analog_mvm");
    const double adc = xb.energy().component_pj("adc");
    bt.add_row({std::to_string(bits), core::TextTable::num(reads, 2),
                core::TextTable::num(adc, 2),
                core::TextTable::num(100.0 * adc / (adc + reads), 1) + "%"});
  }
  std::printf("%s", bt.to_string().c_str());
  std::printf(
      "-> the A/D conversion dominates analog MVM energy at high resolution,"
      " motivating analog accumulation and approximate periphery [11]\n");

  std::printf("\n=== Analog accumulation across row tiles ([11]: one A/D "
              "conversion per strip) ===\n");
  core::TextTable aa({"accumulation", "pJ/MVM (16x64, 4 row tiles)",
                      "reduction", "DNN acc (8-row tiles)"});
  double digital_pj = 0.0;
  for (const bool analog : {false, true}) {
    TileConfig config;
    config.tile_rows = 16;  // the 64-input layer spans 4 row tiles
    config.crossbar.programming.scheme = ProgramScheme::kVerify;
    config.analog_accumulation = analog;
    TiledMatvec strip(random_weights(16, 64, 3), config);
    strip.matvec(x);
    const double pj = strip.mvm_energy_pj();
    if (!analog) digital_pj = pj;
    config.tile_rows = 8;  // multi-tile strips on the MLP's 16-input layer
    const auto point = run_imc_experiment(config, 1.0, 42);
    aa.add_row({analog ? "analog (charge domain)" : "digital (ADC per tile)",
                core::TextTable::num(pj, 1),
                core::TextTable::num(digital_pj / pj, 1) + "x",
                core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%"});
  }
  std::printf("%s", aa.to_string().c_str());

  std::printf("\n=== Array size amortises the ADC (8b, pJ/op) ===\n");
  core::TextTable st({"array", "pJ/op"});
  for (const std::size_t n : {16, 32, 64, 128, 256}) {
    const auto wn = random_weights(n, n, 5);
    Crossbar xb(wn, CrossbarConfig{});
    const double prog = xb.energy().total_pj();
    std::vector<float> xn(n, 0.4F);
    xb.matvec(xn);
    const double per_op = (xb.energy().total_pj() - prog) /
                          static_cast<double>(xb.ops_per_mvm());
    st.add_row({std::to_string(n) + "x" + std::to_string(n),
                core::TextTable::num(per_op, 4)});
  }
  std::printf("%s", st.to_string().c_str());

  std::printf("\n=== DIMC macro efficiency envelope ([8]: 40-310 TOPS/W) ===\n");
  core::TextTable dt({"weight bits", "TOPS/W @500MHz"});
  for (const int bits : {1, 2, 4, 8}) {
    DimcConfig config;
    config.weight_bits = bits;
    // Energy scales with the weight width of the bit-serial MACs.
    config.mac_energy_pj = 0.003 * bits / 4.0;
    DimcMacro m(w, config);
    dt.add_row({std::to_string(bits),
                core::TextTable::num(m.tops_per_watt(500.0, 2.0), 1)});
  }
  std::printf("%s", dt.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  report::run_micro_timings(argc, argv);
  print_tables();
  return 0;
}
