// Socket round trips against a live in-process Server (src/service/
// server.hpp): PING, RUN, STATS, SHUTDOWN, and the malformed-request /
// unknown-verb error paths, all through the real client codec.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "service/client.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

namespace f90d {
namespace {

using service::ClientResult;
using service::Server;
using service::ServerOptions;
using service::WireRequest;

std::string self_init_source(int n, int p) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(PROGRAM WIRE
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) U(I) = MOD(I * 7 + 3, N) + 1
      FORALL (I = 1:N) B(I) = I * 2.0
      FORALL (I = 1:N) A(U(I)) = B(I) + 1.0
      END PROGRAM WIRE
)",
                n, p);
  return buf;
}

/// A running daemon on a fresh socket in a fresh temp directory.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f90d-server-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    opt_.socket_path = dir_ + "/f90dcd.sock";
    opt_.workers = 2;
    server_ = std::make_unique<Server>(opt_);
    std::string err;
    ASSERT_TRUE(server_->start(err)) << err;
  }

  void TearDown() override {
    if (server_) {
      server_->stop();
      server_->wait();
      server_.reset();
    }
    ::unlink(opt_.socket_path.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
  ServerOptions opt_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingRoundTrip) {
  WireRequest req;
  req.verb = "PING";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_TRUE(res.ok);
  EXPECT_NE(res.body.find("\"pong\":true"), std::string::npos);
}

TEST_F(ServerTest, RunReturnsTheStatsDocumentAndWarmRequestsHit) {
  WireRequest req;
  req.source = self_init_source(64, 4);
  const ClientResult cold = service::request(opt_.socket_path, req);
  ASSERT_TRUE(cold.connected) << cold.error;
  ASSERT_TRUE(cold.ok) << cold.body;
  EXPECT_NE(cold.body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(cold.body.find("\"artifact_hit\":false"), std::string::npos);
  double v = 0;
  ASSERT_TRUE(json_find_number(cold.body, "nprocs", v));
  EXPECT_EQ(static_cast<int>(v), 4);

  const ClientResult warm = service::request(opt_.socket_path, req);
  ASSERT_TRUE(warm.connected) << warm.error;
  ASSERT_TRUE(warm.ok) << warm.body;
  EXPECT_NE(warm.body.find("\"artifact_hit\":true"), std::string::npos);
  // The warm run rebuilt nothing: the shared store served every schedule.
  ASSERT_TRUE(json_find_number(warm.body, "misses", v));
  EXPECT_EQ(static_cast<int>(v), 0);
}

TEST_F(ServerTest, RunWithBadSourceAnswersErrWithoutKillingTheServer) {
  WireRequest req;
  req.source = "PROGRAM X\n      FORALL (\n      END\n";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.body.find("\"ok\":false"), std::string::npos);

  WireRequest ping;
  ping.verb = "PING";
  EXPECT_TRUE(service::request(opt_.socket_path, ping).ok);
}

TEST_F(ServerTest, ZeroStepRunAnswersErrAndTheServerStillAnswersPing) {
  WireRequest req;
  req.source = R"(PROGRAM ZERO
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      INTEGER S
      INTEGER K
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      S = 0
      DO K = 5, 1, S
        A(K) = 1.0
      END DO
      END PROGRAM ZERO
)";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.body.find("zero stride for index K"), std::string::npos)
      << res.body;

  WireRequest ping;
  ping.verb = "PING";
  EXPECT_TRUE(service::request(opt_.socket_path, ping).ok);
}

TEST_F(ServerTest, LogicalGatherAndScatterAnswerAndTheServerStillAnswersPing) {
  // LOGICAL gathers and scatters used to escape as a non-f90d exception
  // and take the daemon down; they run now, and any such escape would be
  // answered as an error.
  WireRequest req;
  req.source = R"(PROGRAM LGS
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      LOGICAL M(N)
      LOGICAL L(N)
      INTEGER U(N)
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN M(I) WITH T(I)
C$ ALIGN L(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
      FORALL (I = 1:N) U(I) = N + 1 - I
      FORALL (I = 1:N) M(I) = I .GT. 5
      FORALL (I = 1:N, M(U(I))) A(I) = 1.0
      FORALL (I = 1:N) L(U(I)) = M(I)
      END PROGRAM LGS
)";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_TRUE(res.ok) << res.body;

  WireRequest ping;
  ping.verb = "PING";
  EXPECT_TRUE(service::request(opt_.socket_path, ping).ok);
}

TEST_F(ServerTest, StatsVerbReportsServiceAggregates) {
  WireRequest run;
  run.source = self_init_source(64, 4);
  ASSERT_TRUE(service::request(opt_.socket_path, run).ok);

  WireRequest req;
  req.verb = "STATS";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  ASSERT_TRUE(res.ok);
  double v = 0;
  ASSERT_TRUE(json_find_number(res.body, "requests", v));
  EXPECT_EQ(static_cast<int>(v), 1);
  EXPECT_NE(res.body.find("\"artifacts\""), std::string::npos);
}

TEST_F(ServerTest, UnknownVerbAnswersErr) {
  WireRequest req;
  req.verb = "FROB";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.body.find("unknown verb"), std::string::npos);
}

TEST_F(ServerTest, MalformedRequestAnswersErr) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(service::write_all(fd, junk));
  ::shutdown(fd, SHUT_WR);
  bool ok = true;
  std::string body, err;
  ASSERT_TRUE(service::read_response(fd, ok, body, err)) << err;
  EXPECT_FALSE(ok);
  ::close(fd);
}

TEST_F(ServerTest, ShutdownVerbStopsTheServer) {
  WireRequest req;
  req.verb = "SHUTDOWN";
  const ClientResult res = service::request(opt_.socket_path, req);
  ASSERT_TRUE(res.connected) << res.error;
  EXPECT_TRUE(res.ok);
  server_->wait();  // returns because the server is stopping
  server_.reset();
  // The socket is gone: a fresh connect must fail.
  WireRequest ping;
  ping.verb = "PING";
  EXPECT_FALSE(service::request(opt_.socket_path, ping).connected);
}

}  // namespace
}  // namespace f90d
