// Seeded mutation fuzz over the readers of the CRC frame: snapshot load
// and run-journal replay (and open-time recovery). The corpora are files
// the writers produce themselves; each iteration applies bit flips,
// truncations and byte splices -- a splice can duplicate, overlap or
// reorder whole frames -- and feeds the result back.
// The contract every byte parser keeps: each call returns or throws
// core::Error (anything else escapes and fails the test), never hangs
// (the ctest TIMEOUT), and every record it serves is bit-exactly one that
// was written. CI also runs it under ASan+UBSan, where an out-of-bounds
// read in a parser fails the job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "fuzz_mutate.hpp"

namespace icsc::core {
namespace {

constexpr std::uint32_t kKind = 0x54534554;       // "TEST"
constexpr std::uint32_t kOtherKind = 0x52485430;  // a foreign stream
constexpr int kIterations = 400;

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void spew(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class FrameFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_frame_fuzz_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string dir_;
};

TEST_F(FrameFuzzTest, SnapshotLoadServesTheWrittenPayloadOrThrows) {
  SnapshotWriter writer;
  for (std::uint64_t i = 0; i < 12; ++i) writer.put_u64(i * 0x9E3779B97F4A7C15);
  writer.put_string("fuzz corpus");
  const std::string path = dir_ + "/snap.bin";
  writer.save(path, kKind, 2);
  const auto corpus = slurp(path);
  Rng rng(0xF022);
  for (int it = 0; it < kIterations; ++it) {
    spew(path, fuzz::mutate(corpus, rng));
    try {
      auto reader = SnapshotReader::try_load(path, kKind, 2);
      ASSERT_TRUE(reader.has_value()) << "iteration " << it;
      EXPECT_EQ(reader->version(), 2u);
      ASSERT_EQ(reader->get_bytes(reader->remaining()), writer.payload())
          << "iteration " << it << ": served a payload never written";
    } catch (const Error&) {
      // A damaged snapshot is rejected: the contract.
    }
  }
}

TEST_F(FrameFuzzTest, JournalReplayServesOnlyWrittenRecords) {
  // Corpus: six records of this stream followed by two of a foreign one,
  // so splices can also move a foreign record in front.
  const std::string path = dir_ + "/run.jnl";
  std::vector<std::vector<std::uint8_t>> written;
  {
    RunJournal journal(path, kKind);
    for (std::uint64_t i = 0; i < 6; ++i) {
      SnapshotWriter record;
      record.put_string(std::string(static_cast<std::size_t>(i * 7),
                                    static_cast<char>('a' + i)));
      written.push_back(record.payload());
      journal.append(record);
    }
  }
  {
    RunJournal foreign(dir_ + "/other.jnl", kOtherKind);
    for (int i = 0; i < 2; ++i) foreign.append(written[1].data(), 7);
  }
  auto corpus = slurp(path);
  const auto tail = slurp(dir_ + "/other.jnl");
  corpus.insert(corpus.end(), tail.begin(), tail.end());
  const auto check = [&](const std::vector<JournalRecord>& records, int it) {
    for (const JournalRecord& record : records) {
      ASSERT_LT(record.seq, written.size()) << "iteration " << it;
      ASSERT_EQ(record.payload, written[record.seq])
          << "iteration " << it << ": served a record never written";
    }
  };
  Rng rng(0xF023);
  for (int it = 0; it < kIterations; ++it) {
    spew(path, fuzz::mutate(corpus, rng));
    try {
      check(RunJournal::replay(path, kKind), it);
      if (HasFatalFailure()) return;
      // Open-time recovery reads the same bytes, then truncates the tail.
      const RunJournal journal(path, kKind);
      check(journal.recovered(), it);
      if (HasFatalFailure()) return;
    } catch (const Error&) {
      // Foreign first record: the file belongs to another stream.
    }
  }
}

}  // namespace
}  // namespace icsc::core
