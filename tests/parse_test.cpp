// Tests for the command-line parsing every lamp tool shares: the
// checked numeric values (whole-value parsing, range checks per field
// type, the error text) and the argv parser built on them; the nesting
// cap of the JSON parser every request line goes through; and the line
// reader those lines arrive through.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/parse.h"
#include "util/socket.h"

namespace lamp::util {
namespace {

TEST(ParseFlagTest, AcceptsWholeValuesOfTheFieldType) {
  int i = 0;
  double d = 0.0;
  std::size_t z = 0;
  EXPECT_TRUE(parseValue("-7", i));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(parseValue("2.5", d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(parseValue("1e3", d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(parseValue("4096", z));
  EXPECT_EQ(z, 4096u);
}

TEST(ParseFlagTest, RejectsGarbageAndOutOfRange) {
  for (const char* bad : {"", "abc", "12x", " 1", "1.5", "2147483648"}) {
    int ii = 3;
    EXPECT_FALSE(parseValue(bad, ii)) << bad;
    EXPECT_EQ(ii, 3) << bad << ": a rejected value must not be stored";
  }
  double d = 0.0;
  EXPECT_FALSE(parseValue("1e999", d));
  EXPECT_FALSE(parseValue("3.0s", d));
  std::size_t z = 0;
  EXPECT_FALSE(parseValue("-1", z));
}

/// Parses `args` (argv without the program name) with `cli`; returns
/// the error, "" on success.
std::string parse(const ArgParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  std::string err;
  const bool ok = cli.parse(static_cast<int>(args.size()), args.data(), err);
  EXPECT_EQ(ok, err.empty()) << err;
  return err;
}

/// One parser with every kind of flag, as the tools use them.
struct Cli {
  Cli() {
    cli.number("ii", ii);
    cli.flag("quiet", quiet);
    cli.text("trace-out", traceOut, FlagValue::Path);
    cli.text("emit-json", emitJson, FlagValue::Optional);
    cli.text("shard", shards);
    cli.text("explain", explain, FlagValue::Spaced);
    cli.positional(input);
  }
  ArgParser cli;
  int ii = 1;
  bool quiet = false;
  std::string traceOut, explain, input;
  std::optional<std::string> emitJson;
  std::vector<std::string> shards;
};

TEST(ParseFlagTest, ErrorNamesValueAndFlag) {
  EXPECT_EQ(parse(Cli().cli, {"--ii=abc"}), "bad value 'abc' for --ii");
}

TEST(ArgParserTest, SetsEveryKindOfFlag) {
  Cli c;
  EXPECT_EQ(parse(c.cli, {"RS", "--ii=3", "--quiet", "--trace-out=t.json",
                          "--shard=a.sock", "--shard=b.sock"}),
            "");
  EXPECT_EQ(c.input, "RS");
  EXPECT_EQ(c.ii, 3);
  EXPECT_TRUE(c.quiet);
  EXPECT_EQ(c.traceOut, "t.json");
  EXPECT_EQ(c.shards, (std::vector<std::string>{"a.sock", "b.sock"}));
  EXPECT_FALSE(c.emitJson.has_value());
}

TEST(ArgParserTest, OptionalValueFlagWithAndWithoutValue) {
  Cli bare;
  EXPECT_EQ(parse(bare.cli, {"--emit-json"}), "");
  ASSERT_TRUE(bare.emitJson.has_value());
  EXPECT_EQ(*bare.emitJson, "");
  Cli file;
  EXPECT_EQ(parse(file.cli, {"--emit-json=out.json"}), "");
  ASSERT_TRUE(file.emitJson.has_value());
  EXPECT_EQ(*file.emitJson, "out.json");
}

TEST(ArgParserTest, ExplainTakesTheNextArgumentOrAnEqualsValue) {
  Cli spaced;
  EXPECT_EQ(parse(spaced.cli, {"--explain", "LAMP018"}), "");
  EXPECT_EQ(spaced.explain, "LAMP018");
  EXPECT_TRUE(spaced.input.empty()) << "the code is not the input";
  Cli equals;
  EXPECT_EQ(parse(equals.cli, {"--explain=LAMP017"}), "");
  EXPECT_EQ(equals.explain, "LAMP017");
  Cli missing;
  EXPECT_EQ(parse(missing.cli, {"--explain"}), "--explain needs a value");
}

TEST(ArgParserTest, RejectsBadArgumentsWithAUsageMessage) {
  EXPECT_EQ(parse(Cli().cli, {"--nope"}), "unknown option --nope");
  EXPECT_EQ(parse(Cli().cli, {"--ii=1.5"}), "bad value '1.5' for --ii");
  EXPECT_EQ(parse(Cli().cli, {"--ii"}), "--ii needs a value");
  EXPECT_EQ(parse(Cli().cli, {"--quiet=1"}), "--quiet takes no value");
  EXPECT_EQ(parse(Cli().cli, {"--trace-out="}), "--trace-out needs a path");
  EXPECT_EQ(parse(Cli().cli, {"RS", "GSM"}), "multiple inputs given");
  ArgParser noInput;
  EXPECT_EQ(parse(noInput, {"RS"}), "unknown option RS");
}

TEST(ArgParserTest, ARejectedValueIsNotStored) {
  Cli c;
  EXPECT_NE(parse(c.cli, {"--ii=7", "--ii=x"}), "");
  EXPECT_EQ(c.ii, 7);
}

// Json::parse recurses once per array/object level: 512 levels parse,
// the 513th is an error naming the cap (without it, a line of 60,000 '['
// overflows lampd's stack).
TEST(JsonParseTest, NestingIsCappedAtTheDepthLimit) {
  ASSERT_EQ(Json::kMaxDepth, 512);
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  std::string err;
  const std::optional<Json> atCap = Json::parse(nested(512), &err);
  ASSERT_TRUE(atCap.has_value()) << err;
  EXPECT_EQ(atCap->size(), 1u);
  EXPECT_FALSE(Json::parse(nested(513), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 at offset 512");
  err.clear();
  EXPECT_FALSE(Json::parse("{\"a\":" + nested(512) + "}", &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 at offset 516");
}

// A line far longer than the reader's 4 KB chunk, written in 4 KB
// pieces, arrives whole, and the short line behind it is not lost.
TEST(LineChannelTest, LongLineInSmallWritesArrivesIntact) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string longLine(1 << 20, 'x');
  for (std::size_t i = 0; i < longLine.size(); i += 997) longLine[i] = 'y';
  const std::string framed = longLine + "\nshort\n";
  std::thread writer([&] {
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n =
          ::write(fds[1], framed.data() + off,
                  std::min<std::size_t>(4096, framed.size() - off));
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  LineChannel ch(fds[0]);
  std::string first, second, none;
  EXPECT_TRUE(ch.readLine(first));
  EXPECT_TRUE(ch.readLine(second));
  EXPECT_FALSE(ch.readLine(none));  // EOF after the writer closes
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(first.size(), longLine.size());
  EXPECT_TRUE(first == longLine);  // not EXPECT_EQ: no 1 MiB printout
  EXPECT_EQ(second, "short");
}

}  // namespace
}  // namespace lamp::util
