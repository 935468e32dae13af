#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "gpu/device.hpp"
#include "linalg/blas.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "sparse/formats.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

// This binary replaces the global allocation functions so a test can count
// the allocations its own thread makes while `t_counting` is set. Every
// replaced form pairs with a replaced free, so sanitizer builds see matching
// malloc/free calls.
namespace {
thread_local bool t_counting = false;
thread_local long t_allocations = 0;

void* counted_malloc(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace gpumip {
namespace {

/// Number of allocations `fn` makes on this thread.
template <class Fn>
long allocations_in(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

/// Runs `fn`, which must throw Error(code) whose text is exactly
/// "<Code>: <message> [<path ending in file>:<line>]".
template <class Fn>
void expect_error_text(Fn&& fn, ErrorCode code, const std::string& message,
                       const std::string& file) {
  try {
    fn();
    ADD_FAILURE() << "expected a throw of: " << message;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code);
    const std::string what = e.what();
    const std::string head = std::string(error_code_name(code)) + ": " + message + " [";
    EXPECT_EQ(what.rfind(head, 0), 0U) << what;
    const std::size_t at = what.find(file + ":", head.size());
    ASSERT_NE(at, std::string::npos) << what;
    const std::string line = what.substr(at + file.size() + 1);
    ASSERT_GE(line.size(), 2U) << what;
    EXPECT_EQ(line.back(), ']') << what;
    EXPECT_GT(std::atoi(line.c_str()), 0) << what;
  }
}

TEST(Error, CodesHaveNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(error_code_name(ErrorCode::kOutOfDeviceMemory), "OutOfDeviceMemory");
  EXPECT_STREQ(error_code_name(ErrorCode::kNumericalFailure), "NumericalFailure");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "Internal");
}

TEST(Error, CheckArgThrowsWithLocation) {
  EXPECT_NO_THROW(check_arg(true, "fine"));
  try {
    check_arg(false, "must fail");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("must fail"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_support.cpp"), std::string::npos);
  }
  expect_error_text([] { check_arg(false, "argument check failed"); },
                    ErrorCode::kInvalidArgument, "argument check failed", "test_support.cpp");
  expect_error_text([] { check_internal(false, "internal check failed"); },
                    ErrorCode::kInternal, "internal check failed", "test_support.cpp");
  expect_error_text([] { check_protocol(false, "protocol check failed"); },
                    ErrorCode::kProtocolError, "protocol check failed", "test_support.cpp");
}

TEST(Error, MessagesFormattedOnFailureKeepTheirText) {
  const auto bad = ErrorCode::kInvalidArgument;
  {
    lp::LpModel model;
    for (int j = 0; j < 4; ++j) model.add_col(1.0, 0.0, 1.0);
    model.add_row(0.0, 1.0);
    model.col(3).lb = 2.0;
    expect_error_text([&] { model.validate(); }, bad, "column 3: lb > ub", "model.cpp");
    model.col(3).lb = 0.0;
    model.col(2).obj = std::nan("");
    expect_error_text([&] { model.validate(); }, bad, "column 2: non-finite objective",
                      "model.cpp");
    model.col(2).obj = 1.0;
    model.row(0).lb = 5.0;
    expect_error_text([&] { model.validate(); }, bad, "row 0: lb > ub", "model.cpp");
  }
  expect_error_text([] { (void)sparse::csr_from_triplets(2, 2, {{0, 1, 1.0}, {5, 1, 1.0}}); },
                    bad, "triplet index out of range: (5,1)", "formats.cpp");
  {
    gpu::Device device;
    gpu::DeviceBuffer buffer = device.alloc_doubles(1);
    const double value = 1.0;
    expect_error_text([&] { device.copy_h2d(7, buffer, &value, sizeof value); }, bad,
                      "invalid stream id 7", "device.cpp");
  }
  {
    lp::LpModel model;
    model.add_col(-1.0, 0.0, 4.0);
    model.add_col(-1.0, 0.0, 4.0);
    model.add_row_le({{0, 1.0}, {1, 1.0}}, 5.0);
    const lp::StandardForm form = lp::build_standard_form(model);
    lp::SimplexSolver solver(form);
    std::vector<double> lb = form.lb;
    std::vector<double> ub = form.ub;
    lb[1] = 3.0;
    ub[1] = 2.0;
    expect_error_text([&] { (void)solver.solve(lb, ub); }, bad,
                      "solve: lb > ub for variable 1", "simplex.cpp");
  }
}

TEST(Error, PassingChecksDoNotAllocate) {
  // Each message is longer than the small-string buffer, so building a
  // std::string from it would allocate.
  EXPECT_EQ(allocations_in([] {
              for (int i = 0; i < 100; ++i) {
                check_arg(i >= 0, "a passing argument check allocates nothing");
                check_internal(i >= 0, "a passing internal check allocates nothing");
                check_protocol(i >= 0, "a passing protocol check allocates nothing");
              }
            }),
            0);

  const int n = 8;
  linalg::Matrix dense(n, n);
  std::vector<sparse::Triplet> triplets;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      dense(i, j) = 1.0 + i + j;
      triplets.push_back({i, j, 1.0 + i + j});
    }
  }
  const sparse::Csr csr = sparse::csr_from_triplets(n, n, triplets);
  const sparse::Csc csc = sparse::csr_to_csc(csr);
  const std::vector<double> x(static_cast<std::size_t>(n), 0.5);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  double sink = 0.0;
  EXPECT_EQ(allocations_in([&] {
              for (int rep = 0; rep < 10; ++rep) {
                for (int j = 0; j < n; ++j) sink += sparse::column_dot(csc, j, x);
                sparse::spmv_t(1.0, csr, x, 0.0, y);
                linalg::gemv_t(1.0, dense, x, 0.5, y);
                linalg::trsv_lower(dense, y, false);
              }
            }),
            0);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(Error, DeviceOutOfMemoryIsAnError) {
  try {
    throw DeviceOutOfMemory("buffer too big");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfDeviceMemory);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.contains(0));
  EXPECT_TRUE(seen.contains(3));
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  auto perm = rng.permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_int(2, 1), Error);
  EXPECT_THROW(rng.index(0), Error);
  EXPECT_THROW(rng.flip(1.5), Error);
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KiB");
  EXPECT_EQ(human_bytes(3ull << 30), "3.00 GiB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(human_seconds(2.5), "2.500 s");
  EXPECT_EQ(human_seconds(0.0015), "1.50 ms");
  EXPECT_EQ(human_seconds(2.5e-6), "2.50 us");
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split_ws("  a  bb\tccc \n").size(), 3u);
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("ROWS section", "ROWS"));
  EXPECT_FALSE(starts_with("RO", "ROWS"));
  EXPECT_EQ(to_upper("mIxEd"), "MIXED");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  EXPECT_GE(t.elapsed(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed(), 1.0);
}

}  // namespace
}  // namespace gpumip
