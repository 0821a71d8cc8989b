// bench/report.hpp: the JSON lines the paper benches print, the
// --early-stop flag helper, and the --baseline scoreboard loader of
// bench_kernels, fuzzed with seeded mutations of the committed
// BENCH_PR5.json (the CI runs this binary under ASan+UBSan).
#include "report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include "core/rng.hpp"
#include "fuzz_mutate.hpp"

namespace icsc::report {
namespace {

const char* const kKernels[] = {"dse_exhaustive", "conv3x3_fixed_point",
                                "approx_conv_truncated_loa",
                                "htconv_foveated", "dna_cluster_reads"};

std::string committed_scoreboard() {
  std::ifstream in(ICSC_BENCH_PR5_JSON);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ReportJson, KeepsTheBenchLineBytes) {
  testing::internal::CaptureStdout();
  Json()
      .str("bench", "fault_stratified")
      .num("budget", std::size_t{160})
      .num("retries", -2)
      .list("neyman_alloc", {40, 48, 36, 36})
      .num("estimate", 0.0123456789, 6)
      .num("nan", std::nan(""), 3)
      .flag("neyman_no_worse", true)
      .flag("identical", false)
      .print();
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "JSON {\"bench\":\"fault_stratified\",\"budget\":160,"
            "\"retries\":-2,\"neyman_alloc\":[40,48,36,36],"
            "\"estimate\":0.012346,\"nan\":null,\"neyman_no_worse\":true,"
            "\"identical\":false}\n");
}

TEST(ReportJson, EscapesStrings) {
  EXPECT_EQ(Json().str("trace_file", "a\"b\\c\nd").text(),
            "{\"trace_file\":\"a\\\"b\\\\c\\u000ad\"}");
  Json counters;
  EXPECT_EQ(Json().str("kernel", "k").fields(counters).text(),
            "{\"kernel\":\"k\"}");
  counters.num("reads", 3);
  EXPECT_EQ(Json().str("kernel", "k").fields(counters).text(),
            "{\"kernel\":\"k\",\"reads\":3}");
}

TEST(ReportFlags, TakeFlagRemovesEveryCopy) {
  char prog[] = "bench", flag[] = "--early-stop", other[] = "--x=1";
  char* argv[] = {prog, flag, other, flag, nullptr};
  int argc = 4;
  EXPECT_TRUE(take_flag(argc, argv, "--early-stop"));
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--x=1");
  EXPECT_EQ(argv[2], nullptr);
  EXPECT_FALSE(take_flag(argc, argv, "--early-stop"));
  EXPECT_EQ(argc, 2);
}

TEST(ScoreboardLoader, ReadsTheCommittedBaseline) {
  const std::string json = committed_scoreboard();
  ASSERT_FALSE(json.empty()) << ICSC_BENCH_PR5_JSON;
  EXPECT_EQ(scoreboard_new_ms(json, "dse_exhaustive"), 53.529);
  EXPECT_EQ(scoreboard_new_ms(json, "dna_cluster_reads"), 3.312);
  for (const char* kernel : kKernels) {
    EXPECT_TRUE(scoreboard_new_ms(json, kernel).has_value()) << kernel;
  }
  EXPECT_FALSE(scoreboard_new_ms(json, "normal_pairs").has_value());
  EXPECT_FALSE(scoreboard_new_ms(json, "").has_value());
}

TEST(ScoreboardLoader, StaysInsideTheKernelRow) {
  // A row without new_ms used to read the next row's value.
  EXPECT_FALSE(scoreboard_new_ms(R"([{"kernel":"a","old_ms":1.0},)"
                                 R"({"kernel":"b","new_ms":2.0}])",
                                 "a")
                   .has_value());
  // A row whose opening brace is gone is not a row.
  EXPECT_FALSE(scoreboard_new_ms(R"([{"kernel":"b","new_ms":2.0},)"
                                 R"("kernel":"a","new_ms":1.0}])",
                                 "a")
                   .has_value());
  EXPECT_EQ(scoreboard_new_ms(R"({"new_ms":4.5,"kernel":"a"})", "a"), 4.5);
}

TEST(ScoreboardLoader, RejectsValuesTheGateCannotUse) {
  // NaN made every --geomean comparison false, so the gate never fired;
  // inf passed it trivially.
  for (const char* value :
       {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "0", "0.0", "-1.5",
        "-0", "", "x", "+1.0"}) {
    const std::string row =
        std::string(R"({"kernel":"a","new_ms":)") + value + "}";
    EXPECT_FALSE(scoreboard_new_ms(row, "a").has_value()) << value;
  }
  EXPECT_EQ(scoreboard_new_ms(R"({"kernel":"a","new_ms":1e-3})", "a"), 1e-3);
}

TEST(ScoreboardLoader, MutatedBaselinesGiveAValidValueOrNone) {
  const std::string json = committed_scoreboard();
  ASSERT_FALSE(json.empty()) << ICSC_BENCH_PR5_JSON;
  core::Rng rng(0xBA5E);
  std::size_t found = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string mutated = fuzz::mutate(json, rng);
    for (const char* kernel : kKernels) {
      const auto ms = scoreboard_new_ms(mutated, kernel);
      if (!ms) continue;
      ++found;
      EXPECT_TRUE(std::isfinite(*ms) && *ms > 0.0)
          << "trial " << trial << " " << kernel << ": " << *ms;
    }
  }
  // Most mutations leave most rows intact.
  EXPECT_GT(found, 20000u);
}

}  // namespace
}  // namespace icsc::report
