#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/base64.h"
#include "src/util/bytes.h"
#include "src/util/clock.h"
#include "src/util/hex.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/string_util.h"

namespace mws::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing record");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing record");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UsesReturnIfError(int v) {
  MWS_RETURN_IF_ERROR(FailIfNegative(v));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

Result<int> DoubledPositive(int v) {
  MWS_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubledPositive(4).value(), 8);
  EXPECT_FALSE(DoubledPositive(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(BytesTest, StringRoundTrip) {
  Bytes b = BytesFromString("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(StringFromBytes(b), "hello");
}

TEST(BytesTest, Concat) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes c = {4, 5, 6};
  EXPECT_EQ(Concat(a, b), (Bytes{1, 2, 3}));
  EXPECT_EQ(Concat(a, b, c), (Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(BytesTest, Xor) {
  Bytes a = {0xff, 0x0f};
  Bytes b = {0xf0, 0x0f};
  EXPECT_EQ(Xor(a, b), (Bytes{0x0f, 0x00}));
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(BytesTest, SecureWipe) {
  Bytes b = {9, 9, 9};
  SecureWipe(b);
  EXPECT_EQ(b, (Bytes{0, 0, 0}));
}

TEST(HexTest, EncodeDecode) {
  Bytes data = {0x00, 0x1f, 0xab, 0xff};
  EXPECT_EQ(HexEncode(data), "001fabff");
  auto decoded = HexDecode("001fabff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(HexTest, DecodeUppercase) {
  auto decoded = HexDecode("ABCDEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(HexTest, RejectsOddLength) { EXPECT_FALSE(HexDecode("abc").ok()); }

TEST(HexTest, RejectsNonHex) { EXPECT_FALSE(HexDecode("zz").ok()); }

TEST(HexTest, EmptyRoundTrip) {
  EXPECT_EQ(HexEncode({}), "");
  EXPECT_EQ(HexDecode("").value(), Bytes{});
}

TEST(Base64Test, Rfc4648Vectors) {
  // RFC 4648 section 10 test vectors.
  EXPECT_EQ(Base64Encode(BytesFromString("")), "");
  EXPECT_EQ(Base64Encode(BytesFromString("f")), "Zg==");
  EXPECT_EQ(Base64Encode(BytesFromString("fo")), "Zm8=");
  EXPECT_EQ(Base64Encode(BytesFromString("foo")), "Zm9v");
  EXPECT_EQ(Base64Encode(BytesFromString("foob")), "Zm9vYg==");
  EXPECT_EQ(Base64Encode(BytesFromString("fooba")), "Zm9vYmE=");
  EXPECT_EQ(Base64Encode(BytesFromString("foobar")), "Zm9vYmFy");
}

TEST(Base64Test, DecodeRoundTrip) {
  for (const char* s : {"", "f", "fo", "foo", "foob", "fooba", "foobar"}) {
    Bytes data = BytesFromString(s);
    auto decoded = Base64Decode(Base64Encode(data));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), data);
  }
}

TEST(Base64Test, RejectsBadLength) { EXPECT_FALSE(Base64Decode("Zm9").ok()); }

TEST(Base64Test, RejectsBadChar) { EXPECT_FALSE(Base64Decode("Zm9!").ok()); }

TEST(Base64Test, RejectsMisplacedPadding) {
  EXPECT_FALSE(Base64Decode("=m9v").ok());
  EXPECT_FALSE(Base64Decode("Zm=v").ok());
  EXPECT_FALSE(Base64Decode("Zg==Zg==").ok());
}

TEST(ClockTest, SystemClockAdvances) {
  SystemClock clock;
  int64_t a = clock.NowMicros();
  EXPECT_GT(a, 0);
}

TEST(ClockTest, SimulatedClock) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SetMicros(7);
  EXPECT_EQ(clock.NowMicros(), 7);
}

TEST(RandomTest, DeterministicReproducible) {
  DeterministicRandom a(42);
  DeterministicRandom b(42);
  EXPECT_EQ(a.Generate(32), b.Generate(32));
  DeterministicRandom c(43);
  EXPECT_NE(a.Generate(32), c.Generate(32));
}

TEST(RandomTest, UniformBounds) {
  DeterministicRandom rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformU64(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  DeterministicRandom rng(2);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[rng.UniformU64(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RandomTest, OsRandomNotConstant) {
  Bytes a = OsRandom::Instance().Generate(16);
  Bytes b = OsRandom::Instance().Generate(16);
  EXPECT_NE(a, b);  // Probability 2^-128 of flake.
}

size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  const size_t hw = HardwareThreads();
  for (size_t n : {size_t{0}, size_t{1}, 3 * hw, 7 * hw + 3}) {
    std::vector<std::atomic<int>> calls(n);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    ParallelFor(n, [&](size_t i) {
      calls[i].fetch_add(1);
      std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "n=" << n << " i=" << i;
    }
    EXPECT_LE(threads.size(), std::min(n, hw)) << "n=" << n;
  }
}

TEST(ParallelForTest, OneItemRunsOnTheCallingThread) {
  std::thread::id ran_on;
  ParallelFor(1, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelForTest, RethrowsAfterEveryThreadHasFinished) {
  const size_t n = 4 * HardwareThreads() + 1;
  std::atomic<int> running{0};
  std::atomic<size_t> calls{0};
  auto fn = [&](size_t i) {
    ++running;
    ++calls;
    if (i == n / 2) {
      --running;
      throw std::runtime_error("item failed");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    --running;
  };
  EXPECT_THROW(ParallelFor(n, fn), std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  EXPECT_LE(calls.load(), n);
}

#ifdef SCHED_IDLE
int ThreadPolicy() {
  int policy = 0;
  sched_param param{};
  pthread_getschedparam(pthread_self(), &policy, &param);
  return policy;
}

TEST(ParallelForTest, HelpersRunAtIdlePriority) {
  const size_t hw = HardwareThreads();
  if (hw < 2) GTEST_SKIP() << "one hardware thread: no helper starts";
  bool permitted = false;
  std::thread([&] {
    sched_param param{};
    permitted =
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
  }).join();
  if (!permitted) GTEST_SKIP() << "this host refuses SCHED_IDLE";

  const std::thread::id caller = std::this_thread::get_id();
  const int caller_policy = ThreadPolicy();
  const size_t n = 4 * hw;
  std::vector<std::thread::id> ran_on(n);
  std::vector<int> policy(n);
  std::atomic<bool> helper_ran{false};
  ParallelFor(n, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    policy[i] = ThreadPolicy();
    if (ran_on[i] != caller) {
      helper_ran = true;
      return;
    }
    // Leave the core until a helper has run an item, so one does even
    // when every core is busy with normal-priority work.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!helper_ran && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  size_t off_caller = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ran_on[i] == caller) {
      EXPECT_EQ(policy[i], caller_policy) << "i=" << i;
    } else {
      ++off_caller;
      EXPECT_EQ(policy[i], SCHED_IDLE) << "i=" << i;
    }
  }
  EXPECT_GT(off_caller, 0u);
  EXPECT_EQ(ThreadPolicy(), caller_policy);
}
#endif  // SCHED_IDLE

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a||b", '|'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, UpperAndPrefix) {
  EXPECT_EQ(ToUpperAscii("electric-sv"), "ELECTRIC-SV");
  EXPECT_TRUE(StartsWith("ELECTRIC-APT", "ELECTRIC"));
  EXPECT_FALSE(StartsWith("GAS", "ELECTRIC"));
}

}  // namespace
}  // namespace mws::util
