#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ftcf::util {
namespace {

Cli make_cli() {
  Cli cli("prog", "test program");
  cli.add_flag("verbose", "chatty output");
  cli.add_option("nodes", "cluster size", "324");
  cli.add_option("sizes", "message sizes", "8,16");
  cli.add_option("ratio", "a real", "0.5");
  return cli;
}

int parse(Cli& cli, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApply) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_EQ(cli.uinteger("nodes"), 324u);
  EXPECT_DOUBLE_EQ(cli.real("ratio"), 0.5);
}

TEST(Cli, ParsesSeparatedAndEqualsForms) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {"--nodes", "128", "--ratio=0.25", "--verbose"}));
  EXPECT_EQ(cli.uinteger("nodes"), 128u);
  EXPECT_DOUBLE_EQ(cli.real("ratio"), 0.25);
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, ParsesUintLists) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {"--sizes", "1,2,42"}));
  EXPECT_EQ(cli.uint_list("sizes"),
            (std::vector<std::uint64_t>{1, 2, 42}));
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli = make_cli();
  EXPECT_THROW(parse(cli, {"--bogus", "1"}), Error);
}

TEST(Cli, RejectsMalformedNumber) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {"--nodes", "12x"}));
  EXPECT_THROW((void)cli.uinteger("nodes"), Error);
}

TEST(Cli, KibBytesRejectsZeroAndOverflow) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {"--nodes", "64"}));
  EXPECT_EQ(cli.kib_bytes("nodes"), 64u * 1024u);
  EXPECT_EQ(kib_to_bytes(18014398509481983ull, "kib"),
            18014398509481983ull * 1024u);
  EXPECT_THROW((void)kib_to_bytes(0, "kib"), Error);
  // 2^54 KiB is 2^64 bytes: it used to wrap to 0.
  EXPECT_THROW((void)kib_to_bytes(18014398509481984ull, "kib"), Error);
  try {
    (void)kib_to_bytes(0, "sizes");
    FAIL() << "expected a util::Error";
  } catch (const Error& ex) {
    EXPECT_NE(std::string(ex.what()).find("--sizes"), std::string::npos);
  }
}

TEST(Cli, PositiveU32RejectsZeroAndTruncation) {
  Cli cli = make_cli();
  EXPECT_TRUE(parse(cli, {"--nodes", "4294967295"}));
  EXPECT_EQ(cli.positive_u32("nodes"), 4294967295u);
  Cli zero = make_cli();
  EXPECT_TRUE(parse(zero, {"--nodes", "0"}));
  EXPECT_THROW((void)zero.positive_u32("nodes"), Error);
  // 2^32 used to truncate to 0.
  Cli wide = make_cli();
  EXPECT_TRUE(parse(wide, {"--nodes", "4294967296"}));
  EXPECT_THROW((void)wide.positive_u32("nodes"), Error);
}

TEST(Cli, RejectsMissingValue) {
  Cli cli = make_cli();
  EXPECT_THROW(parse(cli, {"--nodes"}), Error);
}

TEST(Cli, RejectsValueOnFlag) {
  Cli cli = make_cli();
  EXPECT_THROW(parse(cli, {"--verbose=yes"}), Error);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli = make_cli();
  EXPECT_FALSE(parse(cli, {"--help"}));
}

}  // namespace
}  // namespace ftcf::util
