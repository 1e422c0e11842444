// Teardown invariants checked after every test of every test binary: a
// test must leave the process-wide executor drained (no task queued or
// running) and every CoreBudget slot released. A test that breaks this
// leaks work into the next test's measurements, so it fails here.
#include <gtest/gtest.h>

#include "parallel/executor.h"
#include "parallel/lanes.h"

namespace eblcio {
namespace {

class TeardownInvariants : public ::testing::EmptyTestEventListener {
  // End events run in reverse registration order, so this check runs
  // before the result printer and the failure is reported with the test.
  void OnTestEnd(const ::testing::TestInfo&) override {
    const ExecutorStats ex = Executor::global().stats();
    EXPECT_EQ(ex.queued, 0u) << "executor tasks still queued at test end";
    EXPECT_EQ(ex.running, 0) << "executor tasks still running at test end";
    EXPECT_EQ(CoreBudget::global().held(), 0)
        << "core budget slots still held at test end";
  }
};

[[maybe_unused]] const bool registered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new TeardownInvariants);
  return true;
}();

}  // namespace
}  // namespace eblcio
