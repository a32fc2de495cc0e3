// Tests for the checked parser behind every CLI's numeric flags:
// whole-value parsing, range checks per field type, and the error text.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "util/parse.h"

namespace lamp::util {
namespace {

TEST(ParseFlagTest, AcceptsWholeValuesOfTheFieldType) {
  int i = 0;
  double d = 0.0;
  std::size_t z = 0;
  std::string err;
  EXPECT_TRUE(parseFlag("--ii=-7", i, err));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(parseFlag("--tcp=2.5", d, err));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(parseFlag("--tcp=1e3", d, err));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(parseFlag("--cache-mem-entries=4096", z, err));
  EXPECT_EQ(z, 4096u);
  EXPECT_TRUE(err.empty());
}

TEST(ParseFlagTest, RejectsGarbageAndOutOfRange) {
  std::string err;
  for (const char* bad : {"--ii=", "--ii=abc", "--ii=12x", "--ii= 1",
                          "--ii=1.5", "--ii=2147483648"}) {
    int ii = 3;
    EXPECT_FALSE(parseFlag(bad, ii, err)) << bad;
    EXPECT_EQ(ii, 3) << bad << ": a rejected value must not be stored";
  }
  double d = 0.0;
  EXPECT_FALSE(parseFlag("--tcp=1e999", d, err));
  EXPECT_FALSE(parseFlag("--tcp=3.0s", d, err));
  std::size_t z = 0;
  EXPECT_FALSE(parseFlag("--cache-mem-entries=-1", z, err));
}

TEST(ParseFlagTest, ErrorNamesValueAndFlag) {
  int ii = 1;
  std::string err;
  EXPECT_FALSE(parseFlag("--ii=abc", ii, err));
  EXPECT_EQ(err, "bad value 'abc' for --ii");
}

}  // namespace
}  // namespace lamp::util
