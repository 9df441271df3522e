/// sch-file parser/writer tests, including failure injection.

#include "orlib/schfile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "orlib/biskup_feldmann.hpp"

namespace cdd::orlib {
namespace {

TEST(SchFile, CddRoundTrip) {
  const BiskupFeldmannGenerator gen;
  const std::vector<JobTable> original{gen.JobData(10, 0),
                                       gen.JobData(20, 1)};
  std::stringstream stream;
  WriteCddFile(stream, original);
  const std::vector<JobTable> parsed = ParseCddFile(stream);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], original[0]);
  EXPECT_EQ(parsed[1], original[1]);
}

TEST(SchFile, UcddcpRoundTrip) {
  const BiskupFeldmannGenerator gen;
  const Instance inst = gen.Ucddcp(15, 4);
  const std::vector<JobTable> original{inst.jobs()};
  std::stringstream stream;
  WriteUcddcpFile(stream, original);
  const std::vector<JobTable> parsed = ParseUcddcpFile(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], original[0]);
}

TEST(SchFile, ParsesArbitraryWhitespaceLayout) {
  std::stringstream stream("1\n  3\n4 1 2\n\n5   3\t4\n6 5 6\n");
  const auto tables = ParseCddFile(stream);
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].size(), 3u);
  EXPECT_EQ(tables[0][1].proc, 5);
  EXPECT_EQ(tables[0][2].tardy, 6);
}

TEST(SchFile, MakeInstancesDeriveDueDates) {
  std::stringstream stream("1\n2\n10 1 2\n10 3 4\n");
  const auto tables = ParseCddFile(stream);
  const Instance cdd = MakeCddInstance(tables[0], 0.4);
  EXPECT_EQ(cdd.due_date(), 8);  // floor(0.4 * 20)
  EXPECT_NO_THROW(cdd.Validate());

  std::stringstream stream5("1\n2\n10 4 1 2 3\n10 5 3 4 2\n");
  const auto tables5 = ParseUcddcpFile(stream5);
  const Instance ucddcp = MakeUcddcpInstance(tables5[0]);
  EXPECT_EQ(ucddcp.due_date(), 20);
  EXPECT_TRUE(ucddcp.is_unrestricted());
  EXPECT_NO_THROW(ucddcp.Validate());
}

TEST(SchFile, MakeInstancesRejectOverflowingProcessingTimes) {
  // Three 4e18 processing times parse, but their sum leaves Time: both
  // makers reject the table before any unchecked arithmetic.
  std::stringstream stream(
      "1\n3\n4000000000000000000 1 2\n4000000000000000000 1 2\n"
      "4000000000000000000 1 2\n");
  const auto tables = ParseCddFile(stream);
  EXPECT_THROW(MakeCddInstance(tables[0], 0.4), std::invalid_argument);
  std::stringstream stream5(
      "1\n3\n4000000000000000000 0 1 2 0\n4000000000000000000 0 1 2 0\n"
      "4000000000000000000 0 1 2 0\n");
  const auto tables5 = ParseUcddcpFile(stream5);
  EXPECT_THROW(MakeUcddcpInstance(tables5[0]), std::invalid_argument);

  // Two of them sum to 8e18, which fits; h * sum must fit Time too.
  std::stringstream pair("1\n2\n4000000000000000000 1 2\n"
                         "4000000000000000000 1 2\n");
  const auto pairs = ParseCddFile(pair);
  EXPECT_THROW(MakeCddInstance(pairs[0], 2.0), std::invalid_argument);
  EXPECT_THROW(MakeCddInstance(pairs[0], std::nan("")),
               std::invalid_argument);
  EXPECT_EQ(MakeCddInstance(pairs[0], 0.5).due_date(), 4000000000000000000);
}

TEST(SchFile, TruncatedFileReportsLineNumber) {
  std::stringstream stream("1\n3\n4 1 2\n5 3\n");  // missing last rows
  try {
    ParseCddFile(stream);
    FAIL() << "expected SchParseError";
  } catch (const SchParseError& e) {
    EXPECT_GE(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(SchFile, RejectsGarbageTokens) {
  std::stringstream stream("1\n1\nfour 1 2\n");
  EXPECT_THROW(ParseCddFile(stream), SchParseError);
}

TEST(SchFile, RejectsImplausibleCounts) {
  std::stringstream bad_count("0\n");
  EXPECT_THROW(ParseCddFile(bad_count), SchParseError);
  std::stringstream bad_jobs("1\n-3\n");
  EXPECT_THROW(ParseCddFile(bad_jobs), SchParseError);
}

TEST(SchFile, RejectsSemanticViolations) {
  // Processing time zero.
  std::stringstream zero_proc("1\n1\n0 1 2\n");
  EXPECT_THROW(ParseCddFile(zero_proc), SchParseError);
  // min_proc > proc in the 5-column format.
  std::stringstream bad_min("1\n1\n4 9 1 2 3\n");
  EXPECT_THROW(ParseUcddcpFile(bad_min), SchParseError);
  // Negative penalty.
  std::stringstream neg("1\n1\n4 -1 2\n");
  EXPECT_THROW(ParseCddFile(neg), SchParseError);
}

TEST(SchFile, EmptyStreamFailsCleanly) {
  std::stringstream empty;
  EXPECT_THROW(ParseCddFile(empty), SchParseError);
}

TEST(SchFile, RejectsTrailingData) {
  // One declared instance followed by a stray token: almost certainly a
  // wrong count or a concatenated file, never silently ignored.
  std::stringstream stream("1\n1\n4 1 2\n99\n");
  try {
    ParseCddFile(stream);
    FAIL() << "expected SchParseError";
  } catch (const SchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing data"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'99'"), std::string::npos);
  }
  // Trailing whitespace / blank lines stay fine.
  std::stringstream ok("1\n1\n4 1 2\n\n   \n");
  EXPECT_EQ(ParseCddFile(ok).size(), 1u);
}

TEST(SchFile, LoadReportsPathForMissingFile) {
  const std::string path = "/nonexistent/dir/jobs.sch";
  try {
    LoadCddFile(path);
    FAIL() << "expected SchParseError";
  } catch (const SchParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(SchFile, LoadReportsPathAndLineForMalformedFile) {
  const std::string path =
      ::testing::TempDir() + "/schfile_test_malformed.sch";
  {
    std::ofstream out(path);
    out << "1\n2\n4 1 2\n5 x 6\n";  // bad token on line 4
  }
  try {
    LoadCddFile(path);
    FAIL() << "expected SchParseError";
  } catch (const SchParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find(path + ":4"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(SchFile, LoadRoundTripsAWellFormedFile) {
  const std::string path = ::testing::TempDir() + "/schfile_test_ok.sch";
  const BiskupFeldmannGenerator gen;
  const std::vector<JobTable> original{gen.JobData(8, 2)};
  {
    std::ofstream out(path);
    WriteCddFile(out, original);
  }
  const std::vector<JobTable> loaded = LoadCddFile(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], original[0]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cdd::orlib
