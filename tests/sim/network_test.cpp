#include "sim/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dcdo::sim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&simulation_, CostModel{}) {
    network_.AddNode(1);
    network_.AddNode(2);
    network_.AddNode(3);
  }
  Simulation simulation_;
  SimNetwork network_;
};

TEST_F(NetworkTest, NodesStartUp) {
  EXPECT_TRUE(network_.NodeUp(1));
  EXPECT_TRUE(network_.Reachable(1, 2));
  EXPECT_FALSE(network_.NodeUp(99));
}

TEST_F(NetworkTest, MessageDeliveredWithLatency) {
  bool delivered = false;
  network_.Send(1, 2, 1024, [&] { delivered = true; });
  EXPECT_FALSE(delivered);
  simulation_.Run();
  EXPECT_TRUE(delivered);
  // 1 KB at 12.5 MB/s = ~82 us wire + 300 us latency.
  double micros = simulation_.Now().ToSeconds() * 1e6;
  EXPECT_GT(micros, 300.0);
  EXPECT_LT(micros, 500.0);
}

TEST_F(NetworkTest, LoopbackIsFast) {
  bool delivered = false;
  network_.Send(1, 1, 1024, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_LT(simulation_.Now().ToSeconds() * 1e6, 50.0);
}

TEST_F(NetworkTest, SenderNicSerializesBackToBackSends) {
  std::vector<int> order;
  // Two large messages from node 1: the second waits for the first's wire
  // time before starting.
  network_.Send(1, 2, 1'000'000, [&] { order.push_back(1); });
  network_.Send(1, 3, 1'000'000, [&] { order.push_back(2); });
  simulation_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Two 1 MB messages at 12.5 MB/s = 160 ms total serialization.
  EXPECT_GT(simulation_.Now().ToSeconds(), 0.159);
}

TEST_F(NetworkTest, MessageToDownNodeIsDropped) {
  network_.SetNodeUp(2, false);
  bool delivered = false;
  network_.Send(1, 2, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, NodeRecoveryRestoresDelivery) {
  network_.SetNodeUp(2, false);
  network_.SetNodeUp(2, true);
  bool delivered = false;
  network_.Send(1, 2, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  network_.SetPartitioned(1, 2, true);
  EXPECT_FALSE(network_.Reachable(1, 2));
  EXPECT_FALSE(network_.Reachable(2, 1));
  EXPECT_TRUE(network_.Reachable(1, 3));

  bool delivered = false;
  network_.Send(2, 1, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_FALSE(delivered);

  network_.SetPartitioned(1, 2, false);
  network_.Send(2, 1, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionFormedInFlightLosesMessage) {
  bool delivered = false;
  network_.Send(1, 2, 1'000'000, [&] { delivered = true; });
  // Cut the link before the (80 ms) transfer lands.
  simulation_.Schedule(SimDuration::Millis(1),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, BulkTransferTakesDownloadTime) {
  bool done = false;
  network_.BulkTransfer(1, 2, 5'100'000, [&](bool ok) { done = ok; });
  simulation_.Run();
  EXPECT_TRUE(done);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_GE(seconds, 15.0);
  EXPECT_LE(seconds, 25.0);
}

// A bulk transfer the destination cannot take reports the drop, like a
// stream does: through the event loop, never from inside the call.
TEST_F(NetworkTest, BulkTransferToUnreachableDropped) {
  network_.SetNodeUp(2, false);
  bool called = false, delivered = true;
  network_.BulkTransfer(1, 2, 1024, [&](bool ok) {
    called = true;
    delivered = ok;
  });
  EXPECT_FALSE(called);
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, CountersTrackTraffic) {
  network_.Send(1, 2, 100, [] {});
  network_.Send(1, 3, 200, [] {});
  simulation_.Run();
  EXPECT_EQ(network_.messages_sent(), 2u);
  EXPECT_EQ(network_.bytes_sent(), 300u);
}

// BulkTransfer accounting must mirror Send: a successful transfer is one
// sent + one delivered message with zero residual in-flight.
TEST_F(NetworkTest, BulkTransferCountsLikeSend) {
  bool done = false;
  network_.BulkTransfer(1, 2, 4096, [&](bool ok) { done = ok; });
  EXPECT_EQ(network_.messages_sent(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 1u);
  simulation_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(network_.messages_delivered(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
  EXPECT_EQ(network_.bytes_sent(), 4096u);
}

// A transfer cut off mid-flight is accounted as dropped-in-flight, keeping
// sent == delivered + dropped-in-flight + in-flight; the callback hears of
// the loss.
TEST_F(NetworkTest, BulkTransferDropInFlightIsCounted) {
  bool called = false, done = true;
  network_.BulkTransfer(1, 2, 4096, [&](bool ok) {
    called = true;
    done = ok;
  });
  simulation_.Schedule(SimDuration::Millis(1),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(done);
  EXPECT_EQ(network_.messages_sent(), 1u);
  EXPECT_EQ(network_.messages_delivered(), 0u);
  EXPECT_EQ(network_.messages_dropped_in_flight(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
}

TEST_F(NetworkTest, BulkTransferRefusedAtSendIsOnlyDropped) {
  network_.SetNodeUp(2, false);
  network_.BulkTransfer(1, 2, 4096, [](bool) {});
  simulation_.Run();
  EXPECT_EQ(network_.messages_sent(), 0u);
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

// ===== One accounting contract over every transfer path =====

enum class Path { kSend, kBulk, kStream };
enum class Fault { kNone, kDownAtStart, kLostInFlight };

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      return "delivered";
    case Fault::kDownAtStart:
      return "refused at start";
    case Fault::kLostInFlight:
      return "lost in flight";
  }
  return "";
}

struct AccountingRow {
  const char* name;
  Path path;
  NodeId to;  // every transfer leaves node 1
  std::size_t bytes;
};

constexpr AccountingRow kAccountingRows[] = {
    {"Send to a peer", Path::kSend, 2, 1024},
    {"loopback Send", Path::kSend, 1, 1024},
    {"BulkTransfer to a peer", Path::kBulk, 2, 4096},
    {"loopback BulkTransfer", Path::kBulk, 1, 4096},
    {"StreamTransfer to a peer", Path::kStream, 2, 7'500'000},
    {"loopback StreamTransfer", Path::kStream, 1, 7'500'000},
    {"empty StreamTransfer", Path::kStream, 2, 0},
};

// Every path, under every way a transfer ends: delivered; refused at start
// (the destination is down); lost in flight (a partition forms
// mid-transfer, or a loopback transfer's host goes down). Each outcome
// keeps sent == delivered + dropped-in-flight + in-flight, and a refusal is
// counted dropped without ever being sent. BulkTransfer and StreamTransfer
// report failures to their callback, never from inside the call; Send
// reports only deliveries.
TEST(NetworkAccountingTest, EveryPathCountsEveryOutcomeAlike) {
  for (const AccountingRow& row : kAccountingRows) {
    for (Fault fault :
         {Fault::kNone, Fault::kDownAtStart, Fault::kLostInFlight}) {
      SCOPED_TRACE(std::string(row.name) + ", " + FaultName(fault));
      Simulation simulation;
      SimNetwork network(&simulation, CostModel{});
      network.AddNode(1);
      network.AddNode(2);
      if (fault == Fault::kDownAtStart) network.SetNodeUp(row.to, false);
      std::string report = "none";
      switch (row.path) {
        case Path::kSend:
          network.Send(1, row.to, row.bytes, [&] { report = "delivered"; });
          break;
        case Path::kBulk:
          network.BulkTransfer(1, row.to, row.bytes, [&](bool ok) {
            report = ok ? "delivered" : "failed";
          });
          break;
        case Path::kStream:
          network.StreamTransfer(
              1, row.to, row.bytes, SimDuration::Millis(160), 7.5e6,
              [&](bool ok) { report = ok ? "delivered" : "failed"; });
          break;
      }
      const std::uint64_t accepted = fault == Fault::kDownAtStart ? 0 : 1;
      EXPECT_EQ(report, "none");
      EXPECT_EQ(network.messages_sent(), accepted);
      EXPECT_EQ(network.messages_in_flight(), accepted);
      EXPECT_EQ(network.bytes_sent(), accepted * row.bytes);
      EXPECT_EQ(network.messages_dropped(), 1 - accepted);
      if (fault == Fault::kLostInFlight) {
        simulation.Schedule(SimDuration::Micros(1), [&] {
          if (row.to == 1) {
            network.SetNodeUp(1, false);
          } else {
            network.SetPartitioned(1, row.to, true);
          }
        });
      }
      simulation.Run();
      const bool delivered = fault == Fault::kNone;
      EXPECT_EQ(network.messages_sent(), accepted);
      EXPECT_EQ(network.messages_delivered(), delivered ? 1u : 0u);
      EXPECT_EQ(network.messages_dropped(), delivered ? 0u : 1u);
      EXPECT_EQ(network.messages_dropped_in_flight(),
                fault == Fault::kLostInFlight ? 1u : 0u);
      EXPECT_EQ(network.messages_in_flight(), 0u);
      std::string expected = "delivered";
      if (!delivered) expected = row.path == Path::kSend ? "none" : "failed";
      EXPECT_EQ(report, expected);
    }
  }
}

// ===== StreamTransfer: fair-shared link capacity =====

// A stream with the link to itself runs at its peak rate:
// setup + bytes/peak + latency.
TEST_F(NetworkTest, SoloStreamRunsAtPeakRate) {
  bool delivered = false;
  // 7.5 MB at a 7.5 MB/s peak (the component-transfer goodput): 1 s wire.
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Millis(160), 7.5e6,
                          [&](bool ok) { delivered = ok; });
  EXPECT_EQ(network_.active_streams(), 0u);  // still in setup
  simulation_.Run();
  EXPECT_TRUE(delivered);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_NEAR(seconds, 0.160 + 1.0 + 300e-6, 1e-9);
}

// Two concurrent streams out of one node halve each other's rate: the
// bottleneck is the shared NIC (12.5 MB/s wire), not the per-stream peak.
TEST_F(NetworkTest, ConcurrentStreamsFairShareTheLink) {
  int delivered = 0;
  // Each alone: 6.25 MB at min(7.5, 12.5) = 7.5 MB/s -> 0.833 s.
  // Together: 6.25 MB at 12.5/2 = 6.25 MB/s -> 1 s each.
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) { delivered += ok; });
  network_.StreamTransfer(1, 3, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) { delivered += ok; });
  simulation_.Run();
  EXPECT_EQ(delivered, 2);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_NEAR(seconds, 1.0 + 300e-6, 1e-6);
}

// When a stream finishes, the survivors recompute their share and speed up:
// the big stream's tail runs at full rate once the small one is done.
TEST_F(NetworkTest, FinishReshapesSurvivors) {
  double small_done = 0, big_done = 0;
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 1e9,
                          [&](bool) { small_done = simulation_.Now().ToSeconds(); });
  network_.StreamTransfer(1, 3, 12'500'000, SimDuration::Zero(), 1e9,
                          [&](bool) { big_done = simulation_.Now().ToSeconds(); });
  simulation_.Run();
  // Shared phase: both at 6.25 MB/s. Small: 1 s. Big then has ~6.25 MB left
  // and the wire to itself (12.5 MB/s): ~0.5 s more. Without the reshare it
  // would finish at 2 s.
  EXPECT_NEAR(small_done, 1.0 + 300e-6, 1e-6);
  EXPECT_GT(big_done, 1.49);
  EXPECT_LT(big_done, 1.52);
}

// Sharing is per endpoint, both sides: two streams into one destination
// halve each other even though their sources differ, while streams on
// disjoint node pairs run at full solo rate.
TEST_F(NetworkTest, SharingIsPerEndpoint) {
  network_.AddNode(4);
  double into2 = 0, disjoint = 0;
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool) { into2 = simulation_.Now().ToSeconds(); });
  network_.StreamTransfer(3, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [](bool) {});
  network_.StreamTransfer(1, 4, 100, SimDuration::Zero(), 7.5e6, [](bool) {});
  simulation_.Run();
  // 1 -> 2 shared node 2 with 3 -> 2 (and node 1, briefly, with the tiny
  // 1 -> 4 stream): it cannot beat the half-share finish time.
  EXPECT_GT(into2, 1.0);
  // Re-run disjoint pairs in a quiet network epoch: 1 -> 2 and 3 -> 4
  // share no endpoint, so each runs at its solo 0.833 s.
  network_.StreamTransfer(3, 4, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [](bool) {});
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool) {
                            disjoint = simulation_.Now().ToSeconds() - into2;
                          });
  simulation_.Run();
  EXPECT_NEAR(disjoint, 6'250'000 / 7.5e6 + 300e-6, 1e-5);
}

// One stream completion: which stream, when, and whether it was delivered.
struct Landing {
  int stream = 0;
  std::int64_t nanos = 0;
  bool delivered = false;
  bool operator==(const Landing&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Landing& l) {
  return os << "{" << l.stream << ", " << l.nanos << ", "
            << (l.delivered ? "true" : "false") << "}";
}

// Pins the whole fair-share schedule to the nanosecond: staggered starts
// and setups, a shared source (node 1), a shared destination (node 2), a
// reverse stream that loads both, mixed peaks (capped below and above the
// wire share) and a partition that forms while a stream is on the wire.
// Every completion's order, time and outcome is exact, so a change to how
// re-shares are found must reproduce the schedule bit for bit.
TEST_F(NetworkTest, ReshareScheduleIsExact) {
  network_.AddNode(4);
  std::vector<Landing> landings;
  auto start = [&](int stream, SimDuration at, NodeId from, NodeId to,
                   std::size_t bytes, SimDuration setup, double peak) {
    simulation_.Schedule(at, [&, stream, from, to, bytes, setup, peak] {
      network_.StreamTransfer(from, to, bytes, setup, peak,
                              [&, stream](bool delivered) {
                                landings.push_back({stream,
                                                    simulation_.Now().nanos(),
                                                    delivered});
                              });
    });
  };
  start(0, SimDuration::Zero(), 1, 2, 5'000'000, SimDuration::Millis(160),
        7.5e6);
  start(1, SimDuration::Millis(50), 1, 3, 3'000'000, SimDuration::Millis(100),
        1e9);
  start(2, SimDuration::Millis(120), 4, 2, 2'000'000, SimDuration::Millis(20),
        3e6);
  start(3, SimDuration::Millis(300), 1, 4, 4'000'000, SimDuration::Zero(),
        1e9);
  start(4, SimDuration::Millis(400), 3, 2, 1'500'000, SimDuration::Millis(60),
        7.5e6);
  start(5, SimDuration::Millis(700), 2, 1, 2'500'000, SimDuration::Millis(10),
        1e9);
  // Stream 1 is on the wire: it keeps its share until it lands, then drops.
  simulation_.Schedule(SimDuration::Millis(500),
                       [&] { network_.SetPartitioned(1, 3, true); });
  simulation_.Run();
  const std::vector<Landing> expected = {
      {1, 803'633'333, false}, {2, 806'966'666, true},
      {4, 844'541'666, true},  {3, 1'283'708'333, true},
      {0, 1'304'363'888, true}, {5, 1'311'180'555, true},
  };
  EXPECT_EQ(landings, expected);
  EXPECT_EQ(network_.active_streams(), 0u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
}

// An empty stream (a component with no code) lands after setup plus
// latency and never takes a share: a concurrent stream out of the same NIC
// runs at the full wire rate, and nothing is left in flight.
TEST_F(NetworkTest, ZeroByteStreamCompletesWithoutHoldingAShare) {
  std::int64_t empty_done = -1, full_done = -1;
  network_.StreamTransfer(1, 2, 0, SimDuration::Millis(160), 7.5e6,
                          [&](bool ok) {
                            EXPECT_TRUE(ok);
                            empty_done = simulation_.Now().nanos();
                          });
  // 6.25 MB at the whole 12.5 MB/s wire: 0.5 s, plus latency.
  network_.StreamTransfer(1, 3, 6'250'000, SimDuration::Zero(), 1e9,
                          [&](bool ok) {
                            EXPECT_TRUE(ok);
                            full_done = simulation_.Now().nanos();
                          });
  simulation_.Run();
  EXPECT_EQ(empty_done, 160'300'000);
  EXPECT_EQ(full_done, 500'300'000);
  EXPECT_EQ(network_.active_streams(), 0u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
  EXPECT_EQ(network_.messages_delivered(), 2u);
}

TEST_F(NetworkTest, StreamToUnreachableNodeFails) {
  network_.SetPartitioned(1, 2, true);
  bool called = false, delivered = true;
  network_.StreamTransfer(1, 2, 1000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) {
                            called = true;
                            delivered = ok;
                          });
  EXPECT_FALSE(called);  // failure is deferred, never re-enters the caller
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
}

// A partition that forms mid-stream drops the transfer at delivery time.
TEST_F(NetworkTest, PartitionMidStreamDropsTransfer) {
  bool called = false, delivered = true;
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) {
                            called = true;
                            delivered = ok;
                          });
  simulation_.Schedule(SimDuration::Millis(500),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, ActiveStreamsTracksWirePhase) {
  std::size_t during = 99;
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Millis(100), 7.5e6,
                          [](bool) {});
  simulation_.Schedule(SimDuration::Millis(500),
                       [&] { during = network_.active_streams(); });
  simulation_.Run();
  EXPECT_EQ(during, 1u);
  EXPECT_EQ(network_.active_streams(), 0u);
}

// Pins the calibrated send timing to the microsecond. (The name dates from
// an opt-in batching window, since deleted; it is kept so the suite's test
// ids stay stable.)
TEST_F(NetworkTest, ZeroWindowMatchesLegacyTiming) {
  bool delivered = false;
  network_.Send(1, 2, 1024, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
  // 1 KB at 12.5 MB/s = 81.92 us wire + 300 us latency.
  EXPECT_GE(simulation_.Now().nanos(), 381'000);
  EXPECT_LE(simulation_.Now().nanos(), 382'000);
}

}  // namespace
}  // namespace dcdo::sim
