#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"

namespace kpef {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  KPEF_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  *out = value + 1;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 6);
  EXPECT_EQ(UseAssignOrReturn(-1, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasUnitVariance) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfStaysInRangeAndSkewsLow) {
  Rng rng(17);
  size_t ones = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Zipf(50, 1.2);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 50u);
    ones += (v == 1);
  }
  // Rank 1 should dominate under a Zipf law.
  EXPECT_GT(ones, 300u);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

// All-zero weights are legal: the last index comes back, after the same
// one draw as any other call, so the stream stays aligned.
TEST(RngTest, DiscreteAllZeroWeightsReturnsLastIndex) {
  Rng rng(31);
  Rng reference(31);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rng.Discrete({0.0, 0.0, 0.0}), 2u);
    reference.UniformDouble();
  }
  EXPECT_EQ(rng.Discrete({0.0}), 0u);
  reference.UniformDouble();
  EXPECT_EQ(rng.UniformDouble(), reference.UniformDouble());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (size_t count : {0u, 1u, 5u, 50u, 100u}) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, count);
    EXPECT_EQ(sample.size(), count);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
    for (size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementCoversAll) {
  Rng rng(31);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// The flags kpef_cli's commands and kpef_serve read, with the same
// names, types and ranges as the binaries declare.
void ReadCliGenerate(Flags& f) {
  f.String("out", "graph.kg");
  f.Choice("profile", "aminer", {"aminer", "dblp", "acm", "tiny"});
  f.Double("scale", 1.0, 0.0, /*exclusive=*/true);
}
void ReadCliStats(Flags& f) { f.String("graph", "graph.kg"); }
void ReadCliTexts(Flags& f) {
  f.String("graph", "graph.kg");
  f.Int<size_t>("count", 1, 0);
  f.Int<size_t>("skip", 0, 0);
}
void ReadCliBuild(Flags& f) {
  f.String("graph", "graph.kg");
  f.String("model-dir", "model");
  f.Int<int32_t>("k", 4, 1);
  f.Int<size_t>("train-threads", 0, 0, 256);
}
void ReadCliQuery(Flags& f) {
  f.String("graph", "graph.kg");
  f.String("model-dir", "model");
  f.String("text", "");
  f.Int<size_t>("n", 10, 0);
}
void ReadServe(Flags& f) {
  for (const char* name : {"graph", "model-dir", "wal", "metrics-out",
                           "access-log", "address"}) {
    f.String(name, "");
  }
  f.Double("reload-watch", 0.0, 0.0);
  f.Int<size_t>("threads", 0, 0, 256);
  f.Int<size_t>("batch-size", 16, 1);
  f.Int<size_t>("max-pending", 256, 1);
  const size_t max_n = f.Int<size_t>("max-n", 400, 1);
  f.Int<size_t>("default-n", std::min<size_t>(10, max_n), 1, max_n);
  f.Double("default-deadline-ms", 0.0, 0.0);
  f.Choice("trace-mode", "sampled", {"off", "sampled", "always"});
  f.Int<uint32_t>("trace-head-every", 64, 0);
  f.Double("slow-ms", 100.0, 0.0);
  f.Double("slow-queue-ms", 50.0, 0.0);
  f.Int<int>("port", 8080, 0, 65535);
}

// Parses `args` (argv after the program name), runs `read`, and returns
// the first error.
Status ParseAndRead(const std::vector<const char*>& args,
                    const std::function<void(Flags&)>& read) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data(), 1);
  if (!flags.ok()) return flags.status();
  read(*flags);
  return flags->Finish();
}

// Every case was accepted, or read as a wrong value, by the binaries'
// earlier atoi/atof parsers. Each must now fail and name its flag.
TEST(FlagsTest, RejectsMalformedInputNamingTheFlag) {
  struct Case {
    std::vector<const char*> args;
    std::function<void(Flags&)> read;
    const char* flag;
  };
  const std::vector<Case> cases = {
      {{"--train-deterministic", "1"}, ReadCliBuild, "--train-deterministic"},
      {{"--graph", "g.kg", "--bogus", "1"}, ReadCliStats, "--bogus"},
      {{"--graph", "g.kg", "--k", "3"}, ReadCliStats, "--k"},
      {{"--k", "abc"}, ReadCliBuild, "--k"},
      {{"--k", "0"}, ReadCliBuild, "--k"},
      {{"--profile", "tinny"}, ReadCliGenerate, "--profile"},
      {{"--scale", "abc"}, ReadCliGenerate, "--scale"},
      {{"--scale", "-1"}, ReadCliGenerate, "--scale"},
      {{"--scale", "0"}, ReadCliGenerate, "--scale"},
      {{"--count", "-1"}, ReadCliTexts, "--count"},
      {{"--skip", "-1"}, ReadCliTexts, "--skip"},
      {{"--n", "-1"}, ReadCliQuery, "--n"},
      {{"--train-threads", "-1"}, ReadCliBuild, "--train-threads"},
      {{"--train-threads", "257"}, ReadCliBuild, "--train-threads"},
      {{"--port", "70000"}, ReadServe, "--port"},
      {{"--port", "-1"}, ReadServe, "--port"},
      {{"--max-pending", "-1"}, ReadServe, "--max-pending"},
      {{"--default-n", "-1"}, ReadServe, "--default-n"},
      {{"--trace-head-every", "-1"}, ReadServe, "--trace-head-every"},
      {{"--trace-mode", "bogus"}, ReadServe, "--trace-mode"},
      {{"--threads", "1000000"}, ReadServe, "--threads"},
      {{"--batch-size", "0"}, ReadServe, "--batch-size"},
      {{"--shards", "2"}, ReadServe, "--shards"},
      {{"--rerank-factor", "2"}, ReadServe, "--rerank-factor"},
      {{"--max-pending", "0"}, ReadServe, "--max-pending"},
      {{"--max-n", "0"}, ReadServe, "--max-n"},
      {{"--default-n", "0"}, ReadServe, "--default-n"},
      {{"--max-n", "20", "--default-n", "21"}, ReadServe, "--default-n"},
      {{"--default-n", "500"}, ReadServe, "--default-n"},
      {{"--port", "80x"}, ReadServe, "--port"},
      {{"--port", " 80"}, ReadServe, "--port"},
      {{"--batch-age-ms", "4"}, ReadServe, "--batch-age-ms"},
      // A valueless flag, at the end of argv or before another flag.
      {{"--graph", "g.kg", "--skip"}, ReadCliTexts, "--skip"},
      {{"--port", "--graph", "g.kg"}, ReadServe, "--port"},
      // A repeated flag.
      {{"--k", "3", "--k", "4"}, ReadCliBuild, "--k"},
      // A stray argument.
      {{"--graph", "g.kg", "stray"}, ReadCliStats, "stray"},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const char* arg : c.args) label += std::string(arg) + " ";
    const Status s = ParseAndRead(c.args, c.read);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(s.message().find(c.flag), std::string::npos)
        << label << "-> " << s.ToString();
  }
}

TEST(FlagsTest, ReadsValidValuesAndDefaults) {
  const std::vector<const char*> args = {
      "--port", "0", "--slow-ms", "1", "--count",
      "18446744073709551615", "--text", "graph mining"};
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data(), 1);
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->Int<int>("port", 8080, 0, 65535), 0);
  EXPECT_EQ(flags->Double("slow-ms", 100.0, 0.0), 1.0);
  EXPECT_EQ(flags->Int<size_t>("count", 1, 0),
            std::numeric_limits<size_t>::max());
  EXPECT_EQ(flags->String("text", ""), "graph mining");
  EXPECT_EQ(flags->Int<size_t>("skip", 0, 0), 0u);
  EXPECT_EQ(flags->Choice("trace-mode", "sampled", {"off", "sampled"}),
            "sampled");
  EXPECT_TRUE(flags->Finish().ok());
}

TEST(LoggingTest, LevelFilteringRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  KPEF_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ KPEF_CHECK(false) << "boom"; }, "Check failed");
}

}  // namespace
}  // namespace kpef
