#include "approx/fsrcnn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "approx/fpga_cost.hpp"
#include "core/trace.hpp"

namespace icsc::approx {
namespace {

FsrcnnConfig small_config() {
  FsrcnnConfig cfg;
  cfg.d = 25;
  cfg.s = 5;
  cfg.m = 1;
  // A trained FSRCNN deconv kernel is sharper than bilinear; Catmull-Rom is
  // the analytic stand-in, so foveated interpolation has a measurable cost.
  cfg.upsampler = FsrcnnConfig::Upsampler::kCatmullRom;
  return cfg;
}

FsrcnnConfig large_config() {
  FsrcnnConfig cfg;  // defaults: FSRCNN(56,12,4), Catmull-Rom
  return cfg;
}

QuantConfig fp_config() {
  QuantConfig q;
  q.enabled = false;
  return q;
}

TEST(FsrcnnConfig, Name) {
  EXPECT_EQ(small_config().name(), "FSRCNN(25,5,1)");
  EXPECT_EQ(large_config().name(), "FSRCNN(56,12,4)");
}

TEST(Fsrcnn, UpscaleDoublesResolution) {
  const Fsrcnn model(small_config());
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite, 24, 32, 3);
  const auto lr = core::downscale2x_aligned(scene);
  const auto sr = model.upscale(lr, fp_config());
  EXPECT_EQ(sr.height(), 24u);
  EXPECT_EQ(sr.width(), 32u);
}

TEST(Fsrcnn, BeatsNaiveUpscalerOrClose) {
  // The handcrafted network realises a genuine interpolator: its PSNR on a
  // composite scene must be within a hair of the bilinear reference (tent
  // path) and clearly better than nearest-neighbour replication.
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite, 64, 64, 9);
  const auto lr = core::downscale2x_aligned(scene);
  const Fsrcnn model(small_config());
  const auto sr = model.upscale(lr, fp_config());
  const double model_psnr = core::psnr(scene, sr);

  core::Image nearest(64, 64);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) nearest.at(r, c) = lr.at(r / 2, c / 2);
  }
  const double nearest_psnr = core::psnr(scene, nearest);
  EXPECT_GT(model_psnr, nearest_psnr);
  EXPECT_GT(model_psnr, 20.0);
}

TEST(Fsrcnn, LargeModelAtLeastAsGood) {
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite, 64, 64, 21);
  const Fsrcnn small(small_config());
  const Fsrcnn large(large_config());
  const auto fovea = FovealRegion::full(32, 32);
  const auto r_small = evaluate_sr(small, scene, fp_config(), TconvMode::kExact, fovea);
  const auto r_large = evaluate_sr(large, scene, fp_config(), TconvMode::kExact, fovea);
  // Catmull-Rom upsampling beats tent on band-limited content.
  EXPECT_GT(r_large.psnr_db, r_small.psnr_db - 0.2);
}

TEST(Fsrcnn, QuantizationCostsLittlePsnr) {
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite, 48, 48, 33);
  const Fsrcnn model(small_config());
  const auto fovea = FovealRegion::full(24, 24);
  const auto fp = evaluate_sr(model, scene, fp_config(), TconvMode::kExact, fovea);
  const auto q16 = evaluate_sr(model, scene, QuantConfig{}, TconvMode::kExact, fovea);
  EXPECT_LT(fp.psnr_db - q16.psnr_db, 3.0);
  EXPECT_GT(q16.psnr_db, 0.8 * fp.psnr_db);
}

TEST(Fsrcnn, HtconvPsnrWithinTenPercent) {
  // The paper's claim: PSNR reduction lower than 10% vs the conventional
  // TCONV evaluation of the same quantised model.
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite, 96, 96, 41);
  const Fsrcnn model(small_config());
  const QuantConfig q16;
  const auto exact = evaluate_sr(model, scene, q16, TconvMode::kExact,
                                 FovealRegion::full(48, 48));
  const auto fovea = FovealRegion::centered(48, 48, 0.06);
  const auto approx = evaluate_sr(model, scene, q16, TconvMode::kFoveated, fovea);
  EXPECT_LE(approx.psnr_db, exact.psnr_db + 0.3);
  EXPECT_GT(approx.psnr_db, 0.90 * exact.psnr_db);
}

TEST(Fsrcnn, MacCounterMatchesAnalyticModel) {
  const Fsrcnn model(small_config());
  const auto scene = core::make_scene(core::SceneKind::kEdges, 40, 40, 43);
  const auto r = evaluate_sr(model, scene, QuantConfig{}, TconvMode::kExact,
                             FovealRegion::full(20, 20));
  const double analytic = model.macs_per_lr_pixel(TconvMode::kExact, 1.0) * 20 * 20;
  EXPECT_NEAR(static_cast<double>(r.macs), analytic, analytic * 0.01);
}

/// FNV-1a over the bit patterns of every output pixel, row-major.
std::uint64_t image_bits(const core::Image& img) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : img.tensor().data()) {
    h ^= std::bit_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Fsrcnn, UpscaleGoldens) {
  // Pins every output bit of the quantised upscale. The e2ebench shape:
  // FSRCNN(56,12,4) on the 64x64 downscale of a 128x128 scene with a 25 %
  // fovea. The Table I shape: FSRCNN(25,5,1) at 128x128, whose odd channel
  // counts (25, 5) leave a channel without a partner, in exact and in
  // foveated (6 %) mode. One float run pins the quantisation-off path.
  struct Case {
    const char* name;
    FsrcnnConfig config;
    std::size_t scene;
    bool quant;
    TconvMode mode;
    double fraction;
    std::uint64_t bits;
    std::uint64_t macs;
  };
  const Case cases[] = {
      {"e2ebench", large_config(), 128, true, TconvMode::kFoveated, 0.25,
       0x0ab771c0d6752325ULL, 65109608},
      {"table1_exact", small_config(), 256, true, TconvMode::kExact, 1.0,
       0x553117951bd32325ULL, 150732800},
      {"table1_foveated", small_config(), 256, true, TconvMode::kFoveated,
       0.06, 0x62d3ff9382bf2325ULL, 57110975},
      {"table1_fp", small_config(), 256, false, TconvMode::kExact, 1.0,
       0x94099f97a1a00380ULL, 150732800},
  };
  for (const auto& c : cases) {
    const Fsrcnn model(c.config);
    const auto scene = core::make_scene(core::SceneKind::kNaturalComposite,
                                        c.scene, c.scene, 1);
    const auto lr = core::downscale2x_aligned(scene);
    const auto fovea =
        c.mode == TconvMode::kExact
            ? FovealRegion::full(lr.height(), lr.width())
            : FovealRegion::centered(lr.height(), lr.width(), c.fraction);
    QuantConfig quant;
    quant.enabled = c.quant;
    core::OpCounter ops;
    const auto sr = model.upscale(lr, quant, c.mode, fovea, &ops);
    EXPECT_EQ(image_bits(sr), c.bits) << c.name << std::hex << " got 0x"
                                      << image_bits(sr);
    EXPECT_EQ(ops.count("mac"), c.macs) << c.name;
  }
}

TEST(Fsrcnn, EveryLayerTakesTheIntegerPath) {
  // The e2ebench shape: all seven ConvLayers (feature, shrink, four
  // mapping layers, expand) and the HTCONV run as exact int16 MACs, with
  // activations kept as planes between them.
#if ICSC_TRACE
  namespace trace = core::trace;
  const Fsrcnn model(large_config());
  const auto lr = core::downscale2x_aligned(
      core::make_scene(core::SceneKind::kNaturalComposite, 128, 128, 1));
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::reset();
  model.upscale(lr, QuantConfig{}, TconvMode::kFoveated,
                FovealRegion::centered(64, 64, 0.25));
  const auto counters = trace::counters();
  trace::reset();
  trace::set_enabled(was_enabled);
  ASSERT_EQ(counters.count("conv.int16_layers"), 1u);
  EXPECT_EQ(counters.at("conv.int16_layers"), 8u);
#else
  GTEST_SKIP() << "tracing compiled out";
#endif
}

TEST(Fsrcnn, MacSavingsExceedEightyPercent) {
  // Paper: "Our approximation strategy saves more than 80% of MACs" --
  // FSRCNN(25,5,1)+HTCONV vs the FSRCNN(56,12,4) baseline.
  const Fsrcnn small(small_config());
  const Fsrcnn large(large_config());
  const double approx_macs = small.macs_per_lr_pixel(TconvMode::kFoveated, 0.06);
  const double baseline_macs = large.macs_per_lr_pixel(TconvMode::kExact, 1.0);
  EXPECT_GT(1.0 - approx_macs / baseline_macs, 0.80);
}

TEST(Fsrcnn, FoveatedMacsIncreaseWithFovealFraction) {
  const Fsrcnn model(small_config());
  double prev = 0.0;
  for (const double f : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    const double macs = model.macs_per_lr_pixel(TconvMode::kFoveated, f);
    EXPECT_GT(macs, prev);
    prev = macs;
  }
  EXPECT_NEAR(prev, model.macs_per_lr_pixel(TconvMode::kExact, 1.0), 1e-9);
}

TEST(Table1, LiteratureRowsPresent) {
  const auto rows = table1_literature();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].method, "[15]");
  EXPECT_EQ(rows[0].dsps, 1512);
  EXPECT_EQ(rows[1].method, "[17]");
  EXPECT_LT(rows[1].power_w, 0.0);  // NA in the paper
}

TEST(Table1, ModeledRowTracksPublished) {
  const auto published = table1_new_published();
  const auto modeled = table1_new_modeled(SrEngineParams{});
  // The analytic model must land within 10% of every published column.
  EXPECT_NEAR(modeled.fmax_mhz, published.fmax_mhz, 0.10 * published.fmax_mhz);
  EXPECT_NEAR(modeled.out_throughput_mpix_s, published.out_throughput_mpix_s,
              0.10 * published.out_throughput_mpix_s);
  EXPECT_NEAR(modeled.luts, published.luts, 0.10 * published.luts);
  EXPECT_NEAR(modeled.ffs, published.ffs, 0.10 * published.ffs);
  EXPECT_NEAR(modeled.dsps, published.dsps, 0.10 * published.dsps);
  EXPECT_NEAR(modeled.bram_kb, published.bram_kb, 0.10 * published.bram_kb);
  EXPECT_NEAR(modeled.power_w, published.power_w, 0.10 * published.power_w);
  EXPECT_NEAR(modeled.energy_eff_mpix_per_w, published.energy_eff_mpix_per_w,
              0.10 * published.energy_eff_mpix_per_w);
}

TEST(Table1, NewHasBestEnergyEfficiency) {
  const auto modeled = table1_new_modeled(SrEngineParams{});
  for (const auto& row : table1_literature()) {
    if (row.energy_eff_mpix_per_w > 0.0) {
      EXPECT_GT(modeled.energy_eff_mpix_per_w, row.energy_eff_mpix_per_w);
    }
  }
}

TEST(Table1, FlexibleEngineTradeoff) {
  // [16]: one flexible CONV+TCONV engine vs two dedicated engines.
  const auto cmp = compare_flexible_engine(SrEngineParams{});
  EXPECT_GT(cmp.flexible.luts, cmp.dedicated_tconv.luts);  // mux overhead
  EXPECT_LT(cmp.flexible.luts, cmp.dedicated_total_luts);  // still cheaper
  EXPECT_GT(cmp.area_saving_fraction, 0.0);
  EXPECT_LT(cmp.area_saving_fraction, 0.6);
  EXPECT_GT(cmp.dedicated_conv.luts, 0);
  EXPECT_LT(cmp.dedicated_conv.dsps, cmp.dedicated_tconv.dsps);
}

TEST(Table1, ExactModeCostsMoreThroughputLoss) {
  SrEngineParams foveated;
  SrEngineParams exact;
  exact.mode = TconvMode::kExact;
  const auto est_f = estimate_sr_engine(foveated);
  const auto est_e = estimate_sr_engine(exact);
  // Conventional TCONV recirculates every pixel 4x: ~3.4x lower throughput.
  EXPECT_GT(est_f.out_throughput_mpix_s, 3.0 * est_e.out_throughput_mpix_s);
}

}  // namespace
}  // namespace icsc::approx
