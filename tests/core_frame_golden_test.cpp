// Golden on-disk bytes for every file written through the CRC frame
// (core/frame.hpp): a snapshot and a run journal. Fixed inputs go in; each
// file's full bytes are compared against committed hex, so a change to the
// header layout, the CRC or a caller's tag fields fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"

namespace icsc::core {
namespace {

std::string file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  return hex;
}

class FrameGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_golden_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string dir_;
};

TEST_F(FrameGoldenTest, SnapshotBytes) {
  SnapshotWriter writer;
  writer.put_u32(0xC0FFEEu);
  writer.put_f64(0.5);
  writer.put_string("golden");
  writer.save(dir_ + "/snap.bin", 0x54534554u, 3);
  EXPECT_EQ(file_hex(dir_ + "/snap.bin"),
            // "ICSCSNAP" | kind | version | size 26 | payload CRC | header CRC
            "49435343534e415054455354030000001a000000000000009f9cbd2cee55d67b"
            // u32 0xC0FFEE | f64 0.5 | u64 6 | "golden"
            "eeffc000000000000000e03f0600000000000000676f6c64656e");
}

TEST_F(FrameGoldenTest, ThreeRecordJournalBytes) {
  {
    RunJournal journal(dir_ + "/run.jnl", 0x54534554u);
    SnapshotWriter first;
    first.put_u64(1001);
    journal.append(first);
    journal.append(nullptr, 0);
    SnapshotWriter third;
    third.put_string("tail");
    journal.append(third);
  }
  EXPECT_EQ(file_hex(dir_ + "/run.jnl"),
            // "JRNL" | kind | seq 0 | size 8 | payload CRC | header CRC
            "4a524e4c5445535400000000000000000800000000000000befb55c817279849"
            "e903000000000000"
            // seq 1, empty payload (CRC 0)
            "4a524e4c544553540100000000000000000000000000000000000000a42cbc3c"
            // seq 2, u64 4 | "tail"
            "4a524e4c5445535402000000000000000c000000000000005196a025c4e833f9"
            "04000000000000007461696c");
}

}  // namespace
}  // namespace icsc::core
