// The cost model must land inside the paper's reported bands — these tests
// pin the calibration so a careless edit cannot silently break every bench.
#include "sim/cost_model.h"

#include <gtest/gtest.h>

#include <limits>

namespace dcdo::sim {
namespace {

class CostModelBands : public ::testing::Test {
 protected:
  CostModel cost_;
};

// Paper: "a 5.1 Megabyte object implementation ... takes 15 to 25 seconds to
// download".
TEST_F(CostModelBands, LargeImplementationDownload) {
  double seconds = cost_.DownloadTime(5'100'000).ToSeconds();
  EXPECT_GE(seconds, 15.0);
  EXPECT_LE(seconds, 25.0);
}

// Paper: "a 550 K implementation takes about 4 seconds to download".
TEST_F(CostModelBands, SmallImplementationDownload) {
  double seconds = cost_.DownloadTime(550'000).ToSeconds();
  EXPECT_GE(seconds, 3.0);
  EXPECT_LE(seconds, 5.0);
}

// Paper: "it takes objects approximately 25 to 35 seconds to realize that a
// local binding contains a physical address that the object is no longer
// using".
TEST_F(CostModelBands, StaleBindingDiscoveryBand) {
  double seconds = cost_.StaleBindingDiscovery().ToSeconds();
  EXPECT_GE(seconds, 25.0);
  EXPECT_LE(seconds, 35.0);
}

// Paper: dynamic function calls take "between 10 and 15 microseconds".
TEST_F(CostModelBands, DfmLookupBand) {
  double micros = cost_.dfm_lookup.ToMicros();
  EXPECT_GE(micros, 10.0);
  EXPECT_LE(micros, 15.0);
}

// Paper: incorporating a cached component costs ~200 us.
TEST_F(CostModelBands, CachedComponentMapCost) {
  EXPECT_EQ(cost_.component_map_cached.ToMicros(), 200.0);
}

// Paper: a 500-fn/50-component DCDO takes ~10 s to create; the per-component
// share (session + stream of a ~100 KB image) is therefore ~200 ms.
TEST_F(CostModelBands, ComponentFetchShareMatchesCreationNumber) {
  double per_component = cost_.ComponentDownloadTime(100 * 1024).ToSeconds();
  EXPECT_GE(per_component, 0.15);
  EXPECT_LE(per_component, 0.25);
}

// Components stream much faster than the executable file path: the same
// bytes cost dramatically less as a component fetch.
TEST_F(CostModelBands, ComponentPathFasterThanFilePath) {
  EXPECT_LT(cost_.ComponentDownloadTime(550'000).ToSeconds() * 4,
            cost_.DownloadTime(550'000).ToSeconds());
  // But larger components still take longer (download-dominated regime).
  EXPECT_GT(cost_.ComponentDownloadTime(5'100'000).ToSeconds(),
            cost_.ComponentDownloadTime(100'000).ToSeconds() * 3);
}

TEST_F(CostModelBands, DownloadScalesWithSize) {
  EXPECT_LT(cost_.DownloadTime(100'000).nanos(),
            cost_.DownloadTime(1'000'000).nanos());
  EXPECT_LT(cost_.DownloadTime(1'000'000).nanos(),
            cost_.DownloadTime(10'000'000).nanos());
}

TEST_F(CostModelBands, MessageTimeIsSubMillisecondForSmallPayloads) {
  EXPECT_LT(cost_.MessageTime(256).ToMillis(), 1.0);
}

TEST_F(CostModelBands, DiskCostsScale) {
  EXPECT_LT(cost_.DiskRead(1024).nanos(), cost_.DiskRead(10 << 20).nanos());
  EXPECT_GT(cost_.DiskWrite(1 << 20).nanos(), cost_.DiskRead(1 << 20).nanos())
      << "writes are slower than reads in the model";
}

TEST_F(CostModelBands, StateCaptureSlowerThanRestore) {
  // Capture serializes + writes; restore reads a prepared image.
  EXPECT_GT(cost_.StateCapture(1 << 20).nanos(),
            cost_.StateRestore(1 << 20).nanos());
}

TEST(CostModelValidate, DefaultIsValid) {
  EXPECT_TRUE(ValidateCostModel(CostModel{}).ok());
}

TEST(CostModelValidate, RejectsNonPositiveBandwidth) {
  CostModel bad;
  bad.wire_bandwidth_bytes_per_sec = 0;
  EXPECT_FALSE(ValidateCostModel(bad).ok());
  // A zero marshal rate makes every remote call charge 0/0 seconds.
  bad = CostModel{};
  bad.marshal_bytes_per_sec = 0;
  EXPECT_FALSE(ValidateCostModel(bad).ok());
  bad = CostModel{};
  bad.wire_bandwidth_bytes_per_sec = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateCostModel(bad).ok());
}

TEST(CostModelValidate, RejectsAbsurdEfficiency) {
  CostModel bad;
  bad.bulk_transfer_efficiency = 1.5;
  EXPECT_FALSE(ValidateCostModel(bad).ok());
  bad.bulk_transfer_efficiency = 0.0;
  EXPECT_FALSE(ValidateCostModel(bad).ok());
  bad = CostModel{};
  bad.component_transfer_efficiency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateCostModel(bad).ok());
}

TEST(CostModelValidate, RejectsNegativeDuration) {
  CostModel bad;
  bad.rpc_marshal_per_call = SimDuration::Micros(-1);
  EXPECT_FALSE(ValidateCostModel(bad).ok());
}

TEST(CostModelValidate, RejectsNegativeRetries) {
  CostModel bad;
  bad.stale_retry_count = -1;
  EXPECT_FALSE(ValidateCostModel(bad).ok());
}

// Sessions are the only exactly-once path: a client needs at least one slot.
TEST(CostModelValidate, RejectsSessionSlotsBelowOne) {
  CostModel cost;
  EXPECT_EQ(cost.session_slots, 16);
  cost.session_slots = 1;
  EXPECT_TRUE(ValidateCostModel(cost).ok());
  cost.session_slots = 0;
  Status status = ValidateCostModel(cost);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

// The stale-binding schedule arithmetic lives in one place: it is a
// function of (timeout, retries, rebind_query), and the default model
// reproduces the exact legacy numbers.
TEST_F(CostModelBands, StaleScheduleHelpersAgree) {
  EXPECT_EQ(cost_.RetryAttemptsPerBinding(), 3);
  EXPECT_DOUBLE_EQ(cost_.StaleBindingDiscovery().ToSeconds(), 30.9);
  EXPECT_EQ(cost_.StaleBindingDiscovery().nanos(),
            (cost_.invocation_timeout * cost_.RetryAttemptsPerBinding() +
             cost_.rebind_query)
                .nanos());
}

TEST_F(CostModelBands, StaleScheduleHelpersTrackTheKnobs) {
  cost_.invocation_timeout = SimDuration::Seconds(4.0);
  cost_.stale_retry_count = 1;
  cost_.rebind_query = SimDuration::Seconds(0.5);
  EXPECT_EQ(cost_.RetryAttemptsPerBinding(), 2);
  EXPECT_DOUBLE_EQ(cost_.StaleBindingDiscovery().ToSeconds(), 8.5);
}

// The lease knob defaults to off (the paper's probe-only protocol) and is
// validated like every other knob.
TEST(CostModelValidate, NamingDirectoryKnobs) {
  CostModel cost;
  EXPECT_EQ(cost.binding_lease_duration, SimDuration::Zero());

  CostModel leased;
  leased.binding_lease_duration = SimDuration::Seconds(60.0);
  EXPECT_TRUE(ValidateCostModel(leased).ok());

  CostModel bad;
  bad.binding_lease_duration = SimDuration::Seconds(-1.0);
  EXPECT_FALSE(ValidateCostModel(bad).ok());
}

}  // namespace
}  // namespace dcdo::sim
