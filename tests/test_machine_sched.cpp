// The SimMachine event loop and its failure semantics:
//  - repeated runs produce bit-identical array results and identical
//    simulated times,
//  - a node-program exception poisons the mailboxes so blocked peers unwind
//    (the historical `t.join()` hang),
//  - a communication deadlock (mismatched send/recv) fails with a per-proc
//    wait-state report instead of hanging,
//  - 32x32 and 1024-processor machines are cheap enough for routine tests.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "apps/gauss_hand.hpp"
#include "apps/sources.hpp"
#include "harness.hpp"
#include "interp/interp.hpp"
#include "machine/profiles.hpp"
#include "machine/topology.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define F90D_TEST_SANITIZED 1
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define F90D_TEST_SANITIZED 1
#endif

namespace f90d {
namespace {

#ifdef F90D_TEST_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

using machine::CostModel;
using machine::DeadlockError;
using machine::Proc;
using machine::SimMachine;

SimMachine ipsc_machine(int p) {
  return SimMachine(p, CostModel::ipsc860(), machine::make_hypercube());
}

// --- failure semantics -------------------------------------------------------

TEST(EventLoop, ThrowOnRank0MidExchangeUnblocksPeers) {
  // Regression: rank 0 of a 2x2 grid throws mid-exchange while ranks 2 and 3
  // are blocked in recv on it.  Every mailbox is poisoned, the peers unwind,
  // and the original error is rethrown instead of run() hanging.
  SimMachine m(4, CostModel::ideal(), machine::make_crossbar());
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) {
        p.send_value<int>(1, 9, 41);
        throw RtsError("boom on rank 0 mid-exchange");
      }
      (void)p.recv_value<int>(0, 9);  // only rank 1 is ever served
      if (p.rank() == 1) return;
    });
    FAIL() << "expected the rank-0 error to propagate";
  } catch (const RtsError& e) {
    EXPECT_NE(std::string(e.what()).find("boom on rank 0"), std::string::npos);
  }
}

TEST(EventLoop, MismatchedTagsDeadlockFailsWithWaitReport) {
  // A cyclic wait from a hand-written node program: both sides send tag 1
  // but wait for tag 2.  Must fail with a diagnostic, not hang.
  SimMachine m(2, CostModel::ideal(), machine::make_crossbar());
  try {
    m.run([&](Proc& p) {
      p.send_value<int>(1 - p.rank(), 1, 7);
      (void)p.recv_value<int>(1 - p.rank(), 2);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: blocked in recv(src=1, tag=2)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: blocked in recv(src=0, tag=2)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1 queued message(s)"), std::string::npos) << what;
  }
}

TEST(EventLoop, SelfDeadlockOnOneProcessorIsDetected) {
  SimMachine m(1, CostModel::ideal(), machine::make_crossbar());
  EXPECT_THROW(m.run([&](Proc& p) { (void)p.recv(0, 5); }), DeadlockError);
}

TEST(EventLoop, PeerFinishingWithoutSendingIsADeadlock) {
  // Rank 1 returns without ever sending what rank 0 waits for: all *live*
  // processors are blocked, which must be flagged just like a cyclic wait.
  SimMachine m(2, CostModel::ideal(), machine::make_crossbar());
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) (void)p.recv(1, 5);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0: blocked in recv(src=1, tag=5)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: finished"), std::string::npos) << what;
  }
}

TEST(EventLoop, ZeroByteMessagesDeliver) {
  SimMachine m = ipsc_machine(2);
  auto r = m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.send_bytes(1, 3, nullptr, 0);
    } else {
      machine::Message msg = p.recv(0, 3);
      EXPECT_EQ(msg.bytes(), 0u);
      EXPECT_EQ(msg.src, 0);
    }
  });
  EXPECT_EQ(r.total_messages(), 1u);
  EXPECT_EQ(r.total_bytes(), 0u);
}

TEST(EventLoop, SelfSendIsNotADeadlock) {
  SimMachine m = ipsc_machine(2);
  m.run([&](Proc& p) {
    p.send_value<int>(p.rank(), 4, 100 + p.rank());
    EXPECT_EQ((p.recv_value<int>(p.rank(), 4)), 100 + p.rank());
  });
}

TEST(EventLoop, ProbeSeesQueuedMessagesUnderTheMatchingRule) {
  SimMachine m = ipsc_machine(2);
  m.run([&](Proc& p) {
    if (p.rank() == 1) {
      p.send_value<int>(0, 1, 10);
      p.send_value<int>(0, 2, 20);
      p.send_value<int>(0, 99, 0);  // sync: arrives last (sender clock)
      return;
    }
    (void)p.recv_value<int>(1, 99);  // both payload messages are now queued
    EXPECT_TRUE(p.probe(1, 1));
    EXPECT_TRUE(p.probe(1, 2));
    EXPECT_TRUE(p.probe(machine::kAnySource, machine::kAnyTag));
    EXPECT_FALSE(p.probe(1, 5));
    // The wildcard receive takes the earliest-arrival match: tag 1 was sent
    // first, so the sender's monotone clock makes it arrive first.
    machine::Message first = p.recv(machine::kAnySource, machine::kAnyTag);
    EXPECT_EQ(first.tag, 1);
    EXPECT_FALSE(p.probe(1, 1));
    EXPECT_TRUE(p.probe(1, 2));
    machine::Message second = p.recv(machine::kAnySource, machine::kAnyTag);
    EXPECT_EQ(second.tag, 2);
    EXPECT_FALSE(p.probe(machine::kAnySource, machine::kAnyTag));
  });
}

// --- event-scheduler determinism ---------------------------------------------

TEST(EventSched, AnySourceReceivesInArrivalOrderNotSendOrder) {
  // Three senders charge different amounts of compute before sending, so
  // their messages *arrive* in the reverse of their rank order.  The
  // scheduler wakes the receiver at the earliest matching arrival, so the
  // wildcard receive order is a pure function of virtual time.
  SimMachine m = ipsc_machine(4);
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      std::vector<int> srcs;
      for (int i = 0; i < 3; ++i)
        srcs.push_back(p.recv(machine::kAnySource, 7).src);
      EXPECT_EQ(srcs, (std::vector<int>{3, 2, 1}));
    } else {
      p.charge_time((4 - p.rank()) * 1e-3);  // rank 3 sends at t=1ms, ...
      p.send_value<int>(0, 7, p.rank());
    }
  });
}

struct SimArray {
  std::vector<double> a;
  double sim_time = 0.0;
  std::uint64_t messages = 0;
};

SimArray jacobi_on(int n, int iters, int p, int q) {
  auto compiled = compile::compile_source(
      apps::jacobi_source(n, p, q, iters, "BLOCK"));
  SimMachine m = ipsc_machine(p * q);
  interp::Init init;
  init.real["A"] = [](std::span<const interp::Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  auto r = interp::run_compiled(compiled, m, init, {});
  return {r.real_arrays.at("A"), r.machine.exec_time,
          r.machine.total_messages()};
}

SimArray gauss_on(int n, int p) {
  auto compiled = compile::compile_source(apps::gauss_source(n, p, "BLOCK"));
  SimMachine m = ipsc_machine(p);
  interp::Init init;
  init.real["A"] = [n](std::span<const interp::Index> g) {
    return apps::gauss_matrix_entry(n, g[0], g[1]);
  };
  auto r = interp::run_compiled(compiled, m, init, {});
  return {r.real_arrays.at("A"), r.machine.exec_time,
          r.machine.total_messages()};
}

void expect_identical(const SimArray& a, const SimArray& b) {
  EXPECT_EQ(a.a, b.a);
  EXPECT_GT(a.sim_time, 0.0);  // iPSC/860 charges time: not 0 == 0
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.messages, b.messages);
}

// Virtual-time scheduling makes every run of a deterministic program the
// same run: arrays, simulated seconds and message counts repeat exactly.
// One instance per jacobi grid and per gauss processor count.

class EventSchedJacobi
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EventSchedJacobi, RepeatRunsAreBitIdentical) {
  const auto [p, q] = GetParam();
  expect_identical(jacobi_on(32, 3, p, q), jacobi_on(32, 3, p, q));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, EventSchedJacobi,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 2}, std::pair{2, 1},
                      std::pair{2, 2}, std::pair{1, 3}, std::pair{3, 1},
                      std::pair{2, 3}, std::pair{3, 3}, std::pair{4, 4}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

class EventSchedGauss : public ::testing::TestWithParam<int> {};

TEST_P(EventSchedGauss, RepeatRunsAreBitIdentical) {
  expect_identical(gauss_on(24, GetParam()), gauss_on(24, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Procs, EventSchedGauss,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// --- scale: 32x32 and 1024-processor machines --------------------------------

TEST(EventScale, Jacobi256On32x32GridMatchesOracleAndRepeats) {
  const auto t0 = std::chrono::steady_clock::now();
  SimArray r1 = jacobi_on(256, 1, 32, 32);
  SimArray r2 = jacobi_on(256, 1, 32, 32);
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto want = harness::jacobi_oracle(256, 1);
  ASSERT_EQ(r1.a.size(), want.size());
  EXPECT_EQ(r1.a, want);  // element-wise stencil: exactly the oracle
  EXPECT_EQ(r1.a, r2.a);
  EXPECT_EQ(r1.sim_time, r2.sim_time);
  EXPECT_GT(r1.messages, 0u);
  // Two full 1024-processor runs take ~2.5 s in Release; sanitizer builds
  // are an order of magnitude slower, so only guard unsanitized ones.
  if (!kSanitized) {
    EXPECT_LT(host_seconds, 120.0) << "event loop lost its scalability";
  }
}

TEST(EventScale, Gauss1024ProcSkeletonSmoke) {
  auto compiled =
      compile::compile_source(apps::gauss_source(256, 1024, "BLOCK"));
  SimMachine m = ipsc_machine(1024);
  interp::Init init;
  init.real["A"] = [](std::span<const interp::Index> g) {
    return apps::gauss_matrix_entry(256, g[0], g[1]);
  };
  interp::RunOptions ro;
  ro.skeleton = true;
  auto r = interp::run_compiled(compiled, m, init, ro);
  EXPECT_GT(r.machine.exec_time, 0.0);
  EXPECT_GT(r.machine.total_messages(), 0u);
}

// --- machine profiles --------------------------------------------------------

TEST(Profiles, PortabilitySetBuildsMachinesAtScale) {
  const auto& profiles = machine::portability_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (const auto& prof : profiles) {
    SCOPED_TRACE(prof.name);
    SimMachine m = machine::make_profile_machine(prof, 1024);
    auto r = m.run([&](Proc& p) {
      const int peer = (p.rank() + 1) % p.nprocs();
      p.send_value<int>(peer, 1, p.rank());
      (void)p.recv_value<int>((p.rank() + p.nprocs() - 1) % p.nprocs(), 1);
    });
    EXPECT_GT(r.exec_time, 0.0);
    EXPECT_EQ(r.total_messages(), 1024u);
  }
  EXPECT_EQ(machine::profile_by_name("cluster/fat-tree").cost->name,
            "modern-cluster");
  EXPECT_THROW(machine::profile_by_name("cray/torus"), Error);
}

}  // namespace
}  // namespace f90d
