// Tests for the resident simulation daemon (PR 10 acceptance):
//
//   * the wire protocol round-trips, and EVERY truncation prefix of a
//     valid frame, an oversized length field, header corruption and random
//     garbage are diagnosed as clean offset-carrying ProtocolErrors --
//     never a hang, a crash or a silent partial decode;
//   * a daemon-routed request (`--connect`) is byte-identical to the same
//     command run locally -- on a cache miss, on a cache hit, at 1/2/4
//     worker threads, and under interleaved concurrent clients mixing
//     designs;
//   * the keyed elaboration cache hits on byte-equal inputs, evicts LRU
//     entries under its byte budget, and eviction never invalidates an
//     in-flight shared elaboration;
//   * a malformed frame earns a diagnostic response and a closed
//     connection while the daemon keeps serving; a torn frame aborts only
//     its own connection;
//   * drain (stop token / SIGTERM route) unlinks the socket and leaves no
//     temp litter; a stale socket file is rebound, a live one refused;
//   * a randomized serve.* / io.* fail-point soak never wedges the daemon:
//     after every injected failure the next request is bit-identical to
//     the local golden and no torn artifact survives.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/failpoint.hpp"
#include "src/base/supervision.hpp"
#include "src/netlist/library.hpp"
#include "src/serve/client.hpp"
#include "src/serve/elab_cache.hpp"
#include "src/serve/elaboration.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/serve/socket_io.hpp"
#include "src/tools/cli.hpp"

namespace halotis {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBenchA = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";

constexpr const char* kStimA = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";

constexpr const char* kBenchB = R"(INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NAND(n1, c)
n3 = NOT(n2)
y = NAND(n3, n1)
)";

constexpr const char* kStimB = R"(slew 0.4
init a 1
init b 0
init c 1
edge b 4.0 1
edge c 9.0 0
edge b 14.0 0
)";

struct Capture {
  int code = -1;
  std::string out;
  std::string err;

  bool operator==(const Capture& other) const {
    return code == other.code && out == other.out && err == other.err;
  }
};

Capture run_args(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  Capture capture;
  capture.code = run_cli(args, out, err);
  capture.out = out.str();
  capture.err = err.str();
  return capture;
}

/// The fault command's campaign line embeds wall-clock throughput, which
/// differs between ANY two runs (local ones included); scrub it before a
/// byte comparison.  Everything else on the line stays exact.
std::string scrub_wallclock(std::string text) {
  static const std::regex kWallclock{R"([0-9.eE+-]+ s \([0-9.eE+-]+ faults/sec\))"};
  return std::regex_replace(text, kWallclock, "<wall>");
}

void send_raw(int fd, const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t sent = ::send(fd, cursor, size, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0) << "raw send failed";
    cursor += sent;
    size -= static_cast<std::size_t>(sent);
  }
}

// ---- Wire protocol ---------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTrip) {
  serve::RequestFrame request;
  request.args = {"sim", "--netlist", "a.bench", "--stim", "a.stim", "--hash"};
  request.files = {{"a.bench", kBenchA}, {"a.stim", std::string("\x00\xff\n", 3)}};
  const serve::RequestFrame decoded = serve::decode_request(serve::encode_request(request));
  EXPECT_EQ(decoded.args, request.args);
  EXPECT_EQ(decoded.files, request.files);
}

TEST(ServeProtocolTest, ResponseRoundTrip) {
  serve::ResponseFrame response;
  response.exit_code = 3;
  response.out = "final output values:\n  y = 1\n";
  response.err = "error (budget exceeded): kernel: event budget exceeded\n";
  response.artifacts = {{"out/waves.vcd", std::string(1024, '\x7f')}};
  const serve::ResponseFrame decoded =
      serve::decode_response(serve::encode_response(response));
  EXPECT_EQ(decoded.exit_code, response.exit_code);
  EXPECT_EQ(decoded.out, response.out);
  EXPECT_EQ(decoded.err, response.err);
  EXPECT_EQ(decoded.artifacts, response.artifacts);
}

TEST(ServeProtocolTest, EveryTruncationPrefixDiagnosedWithOffset) {
  serve::RequestFrame request;
  request.args = {"sta", "--netlist", "a.bench", "--per-arc"};
  request.files = {{"a.bench", kBenchA}};
  const std::string payload = serve::encode_request(request);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    try {
      (void)serve::decode_request(std::string_view(payload).substr(0, len));
      FAIL() << "a " << len << "-byte truncation prefix decoded without error";
    } catch (const serve::ProtocolError& error) {
      // The diagnosed offset always lies inside (or at the end of) what
      // was actually received, so the message is actionable.
      EXPECT_LE(error.offset(), len) << "prefix " << len;
    }
  }
  EXPECT_NO_THROW((void)serve::decode_request(payload));
  // Trailing garbage after a complete frame is just as malformed.
  EXPECT_THROW((void)serve::decode_request(payload + "x"), serve::ProtocolError);
}

TEST(ServeProtocolTest, HeaderCorruptionDiagnosed) {
  serve::RequestFrame request;
  request.args = {"sim"};
  const std::string good = serve::encode_request(request);
  // Bad magic (first byte), bad version (byte 4), response kind in a
  // request decoder (byte 6), nonzero reserved byte (byte 7).
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}, std::size_t{6},
                               std::size_t{7}}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] + 1);
    EXPECT_THROW((void)serve::decode_request(bad), serve::ProtocolError) << "byte " << at;
  }
  EXPECT_THROW((void)serve::decode_response(good), serve::ProtocolError)
      << "request frame must not decode as a response";
}

TEST(ServeProtocolTest, RandomGarbageNeverCrashesOrDecodes) {
  std::mt19937 rng(0xD5EED);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(rng() % 64, '\0');
    for (char& byte : garbage) byte = static_cast<char>(rng() & 0xFF);
    // A random payload cannot carry the magic + version + kind header
    // (2^-56 per round); anything else must be a clean ProtocolError.
    EXPECT_THROW((void)serve::decode_request(garbage), serve::ProtocolError)
        << "round " << round;
    EXPECT_THROW((void)serve::decode_response(garbage), serve::ProtocolError)
        << "round " << round;
  }
}

// ---- Elaboration cache -----------------------------------------------------

TEST(ElabCacheTest, KeyIsAFunctionOfBytesPolicyAndSdf) {
  const TimingPolicy policy{};
  const std::uint64_t base = serve::elaboration_key("bench", kBenchA, policy, nullptr);
  EXPECT_EQ(serve::elaboration_key("bench", kBenchA, policy, nullptr), base);
  EXPECT_NE(serve::elaboration_key("bench", kBenchB, policy, nullptr), base);
  EXPECT_NE(serve::elaboration_key("native", kBenchA, policy, nullptr), base);
  const std::string empty_sdf;
  EXPECT_NE(serve::elaboration_key("bench", kBenchA, policy, &empty_sdf), base)
      << "an empty SDF is distinct from no SDF";
  TimingPolicy degraded = policy;
  degraded.degradation = !degraded.degradation;
  EXPECT_NE(serve::elaboration_key("bench", kBenchA, degraded, nullptr), base);
}

TEST(ElabCacheTest, EvictsLruButNeverInvalidatesInFlightEntries) {
  const Library lib = Library::default_u6();
  const auto a = serve::build_elaboration(lib, kBenchA, "bench", TimingPolicy{}, nullptr);
  const auto b = serve::build_elaboration(lib, kBenchB, "bench", TimingPolicy{}, nullptr);

  // Budget fits one entry: inserting the second must evict the first.
  serve::ElabCache cache(a->footprint_bytes() + 1);
  const auto got_a = cache.get_or_build(a->key, [&] { return a; });
  EXPECT_EQ(cache.get_or_build(a->key, [&] { return a; }), got_a);  // hit
  const auto got_b = cache.get_or_build(b->key, [&] { return b; });

  const serve::ElabCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // The evicted design is re-built on the next request...
  (void)cache.get_or_build(a->key, [&] { return a; });
  EXPECT_EQ(cache.stats().misses, 3u);
  // ...and the shared_ptr held across the eviction stayed fully usable.
  EXPECT_GT(got_a->netlist.num_signals(), 0u);
  EXPECT_GT(got_a->graph.num_arcs(), 0u);
}

// ---- Daemon end-to-end -----------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("halotis_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    socket_ = (dir_ / "d.sock").string();
  }

  void TearDown() override {
    stop_daemon();
    FailPoints::instance().disarm_all();
    fs::remove_all(dir_);
  }

  std::string write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }

  void start_daemon(int threads, std::size_t cache_bytes = 64u << 20) {
    serve::ServeOptions options;
    options.socket_path = socket_;
    options.threads = threads;
    options.cache_bytes = cache_bytes;
    options.idle_timeout_ms = 10000;
    options.stop = stop_;
    server_ = std::make_unique<serve::Server>(
        options, [](const std::vector<std::string>& args, serve::ServeContext& context,
                    serve::RequestIo& io, std::ostream& out, std::ostream& err) {
          return run_cli_service(args, out, err, &context, &io);
        });
    thread_ = std::thread([this] { server_->run(); });
    wait_ready();
  }

  void stop_daemon() {
    if (thread_.joinable()) {
      stop_.cancel();
      thread_.join();
    }
    server_.reset();
    stop_ = CancelToken{};  // fresh token for a restarted daemon
  }

  /// Blocks until the daemon accepts connections (the probe connection
  /// closes without sending a frame -- a clean EOF the server ignores).
  void wait_ready() {
    for (int attempt = 0; attempt < 2500; ++attempt) {
      try {
        const serve::UnixFd probe = serve::connect_unix(socket_);
        return;
      } catch (const RunError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    FAIL() << "daemon never became ready on " << socket_;
  }

  Capture run_daemon(std::vector<std::string> args) const {
    args.push_back("--connect");
    args.push_back(socket_);
    return run_args(args);
  }

  [[nodiscard]] std::vector<std::string> tmp_litter() const {
    std::vector<std::string> litter;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= 4 && name.substr(name.size() - 4) == ".tmp") {
        litter.push_back(name);
      }
    }
    return litter;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  fs::path dir_;
  std::string socket_;
  CancelToken stop_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

TEST_F(ServeTest, SimIsByteIdenticalOnColdAndWarmCache) {
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  ASSERT_EQ(run_args({"convert", "--netlist", netlist, "--to", "sdf", "--out",
                      (dir_ / "a.sdf").string()})
                .code,
            0);
  const std::vector<std::string> args{"sim",   "--netlist", netlist,
                                      "--stim", stim,       "--sdf",
                                      (dir_ / "a.sdf").string(), "--hash"};
  const Capture local = run_args(args);
  ASSERT_EQ(local.code, 0);
  ASSERT_NE(local.out.find("history hash: "), std::string::npos);
  ASSERT_NE(local.out.find("annotated "), std::string::npos);

  start_daemon(2);
  const Capture cold = run_daemon(args);
  const Capture warm = run_daemon(args);
  EXPECT_EQ(cold, local) << "cache-miss response diverged from local mode";
  EXPECT_EQ(warm, local) << "cache-hit response diverged from local mode";

  const serve::ElabCache::Stats stats = server_->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(ServeTest, StaFaultAndVariationMatchLocalMode) {
  const std::string netlist = write("b.bench", kBenchB);
  const std::string stim = write("b.stim", kStimB);
  ASSERT_EQ(run_args({"convert", "--netlist", netlist, "--to", "sdf", "--out",
                      (dir_ / "b.sdf").string()})
                .code,
            0);

  const std::vector<std::vector<std::string>> commands{
      {"sta", "--netlist", netlist, "--sdf", (dir_ / "b.sdf").string(), "--per-arc"},
      {"fault", "--netlist", netlist, "--stim", stim, "--threads", "2"},
      {"fault", "--netlist", netlist, "--atpg", "--candidates", "40", "--seed", "5"},
      {"variation", "--netlist", netlist, "--stim", stim, "--samples", "25",
       "--seed", "7", "--replay"},
  };
  std::vector<Capture> locals;
  locals.reserve(commands.size());
  for (const auto& args : commands) locals.push_back(run_args(args));

  start_daemon(2);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const Capture daemon = run_daemon(commands[i]);
    EXPECT_EQ(daemon.code, locals[i].code) << commands[i][0];
    EXPECT_EQ(scrub_wallclock(daemon.out), scrub_wallclock(locals[i].out))
        << commands[i][0];
    EXPECT_EQ(daemon.err, locals[i].err) << commands[i][0];
  }
}

TEST_F(ServeTest, AtpgInputErrorLeavesTheDaemonServing) {
  // ATPG on a netlist without primary inputs is an input error (exit 1),
  // answered like any other -- the daemon keeps serving afterwards.
  const std::vector<std::string> atpg{"fault", "--netlist", write("empty.bench", ""),
                                      "--atpg"};
  const std::string netlist = write("a.bench", kBenchA);
  const std::vector<std::string> sim{"sim", "--netlist", netlist, "--stim",
                                     write("a.stim", kStimA)};
  const Capture local_atpg = run_args(atpg);
  ASSERT_EQ(local_atpg.code, 1);
  EXPECT_NE(local_atpg.err.find("ATPG needs 1 to 64 primary inputs"), std::string::npos)
      << local_atpg.err;

  start_daemon(2);
  EXPECT_EQ(run_daemon(atpg), local_atpg);
  EXPECT_EQ(run_daemon(sim), run_args(sim));
}

TEST_F(ServeTest, ArtifactsArriveByteIdenticalAndAtomic) {
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  const std::string local_vcd = (dir_ / "local.vcd").string();
  const std::string daemon_vcd = (dir_ / "daemon.vcd").string();
  const std::string local_csv = (dir_ / "local.csv").string();
  const std::string daemon_csv = (dir_ / "daemon.csv").string();

  const Capture local_sim =
      run_args({"sim", "--netlist", netlist, "--stim", stim, "--vcd", local_vcd});
  const Capture local_var = run_args({"variation", "--netlist", netlist, "--stim", stim,
                                      "--samples", "10", "--csv", local_csv});
  ASSERT_EQ(local_sim.code, 0);
  ASSERT_EQ(local_var.code, 0);

  start_daemon(2);
  const Capture daemon_sim =
      run_daemon({"sim", "--netlist", netlist, "--stim", stim, "--vcd", daemon_vcd});
  const Capture daemon_var = run_daemon({"variation", "--netlist", netlist, "--stim",
                                         stim, "--samples", "10", "--csv", daemon_csv});
  ASSERT_EQ(daemon_sim.code, 0);
  ASSERT_EQ(daemon_var.code, 0);
  // Console bytes differ only by the artifact paths named in argv; the
  // "wrote PATH" lines sit in the same positions.
  EXPECT_NE(daemon_sim.out.find("wrote " + daemon_vcd), std::string::npos);
  EXPECT_NE(daemon_var.out.find("wrote " + daemon_csv), std::string::npos);
  EXPECT_EQ(read_file(daemon_vcd), read_file(local_vcd));
  EXPECT_EQ(read_file(daemon_csv), read_file(local_csv));
  EXPECT_TRUE(tmp_litter().empty());
}

TEST_F(ServeTest, ByteIdenticalAtEveryThreadCount) {
  const std::string netlist_a = write("a.bench", kBenchA);
  const std::string stim_a = write("a.stim", kStimA);
  const std::vector<std::string> args{"sim", "--netlist", netlist_a, "--stim", stim_a,
                                      "--hash"};
  const Capture local = run_args(args);
  ASSERT_EQ(local.code, 0);
  for (const int threads : {1, 2, 4}) {
    start_daemon(threads);
    EXPECT_EQ(run_daemon(args), local) << threads << " daemon threads (miss)";
    EXPECT_EQ(run_daemon(args), local) << threads << " daemon threads (hit)";
    stop_daemon();
  }
}

TEST_F(ServeTest, InterleavedConcurrentClientsStayByteIdentical) {
  const std::string netlist_a = write("a.bench", kBenchA);
  const std::string stim_a = write("a.stim", kStimA);
  const std::string netlist_b = write("b.bench", kBenchB);
  const std::string stim_b = write("b.stim", kStimB);
  const std::vector<std::string> args_a{"sim", "--netlist", netlist_a, "--stim", stim_a,
                                        "--hash"};
  const std::vector<std::string> args_b{"sim", "--netlist", netlist_b, "--stim", stim_b,
                                        "--hash"};
  const Capture golden_a = run_args(args_a);
  const Capture golden_b = run_args(args_b);
  ASSERT_EQ(golden_a.code, 0);
  ASSERT_EQ(golden_b.code, 0);

  start_daemon(4);
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        // Clients interleave the two designs in different phases, so cache
        // misses, hits and pooled-simulator rebinds all overlap.
        const bool use_a = (c + r) % 2 == 0;
        const Capture got = run_daemon(use_a ? args_a : args_b);
        if (!(got == (use_a ? golden_a : golden_b))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const serve::Server::Stats stats = server_->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // Two designs were in play; concurrent first misses may both build
  // (benign, bit-identical), but the cache never holds more than the two.
  EXPECT_LE(server_->cache_stats().entries, 2u);
}

TEST_F(ServeTest, MalformedFrameIsDiagnosedAndDaemonKeepsServing) {
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  const std::vector<std::string> args{"sim", "--netlist", netlist, "--stim", stim};
  const Capture local = run_args(args);
  start_daemon(2);

  {
    // A well-framed payload that is not a protocol frame at all.
    const serve::UnixFd conn = serve::connect_unix(socket_);
    serve::write_frame(conn.get(), "definitely not HALS", nullptr);
    const std::optional<std::string> payload = serve::read_frame(conn.get(), nullptr, 5000);
    ASSERT_TRUE(payload.has_value()) << "malformed frame earned no diagnostic";
    const serve::ResponseFrame response = serve::decode_response(*payload);
    EXPECT_EQ(response.exit_code, 2);
    EXPECT_NE(response.err.find("protocol error at byte"), std::string::npos)
        << response.err;
    // The daemon closed its side after the diagnostic.
    EXPECT_FALSE(serve::read_frame(conn.get(), nullptr, 5000).has_value());
  }

  // The malformed connection cost the daemon nothing.
  EXPECT_EQ(run_daemon(args), local);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ServeTest, OversizedLengthFieldRejectedBeforeAllocation) {
  start_daemon(1);
  const serve::UnixFd conn = serve::connect_unix(socket_);
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  unsigned char prefix[4];
  prefix[0] = static_cast<unsigned char>(huge & 0xFF);
  prefix[1] = static_cast<unsigned char>((huge >> 8) & 0xFF);
  prefix[2] = static_cast<unsigned char>((huge >> 16) & 0xFF);
  prefix[3] = static_cast<unsigned char>((huge >> 24) & 0xFF);
  send_raw(conn.get(), prefix, sizeof prefix);
  const std::optional<std::string> payload = serve::read_frame(conn.get(), nullptr, 5000);
  ASSERT_TRUE(payload.has_value());
  const serve::ResponseFrame response = serve::decode_response(*payload);
  EXPECT_EQ(response.exit_code, 2);
  EXPECT_NE(response.err.find("protocol error at byte 0"), std::string::npos)
      << response.err;
}

TEST_F(ServeTest, TornFrameAbortsOnlyItsOwnConnection) {
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  const std::vector<std::string> args{"sim", "--netlist", netlist, "--stim", stim};
  const Capture local = run_args(args);
  start_daemon(2);

  {
    // Promise 64 payload bytes, deliver 8, hang up mid-frame.
    const serve::UnixFd conn = serve::connect_unix(socket_);
    const unsigned char prefix[4] = {64, 0, 0, 0};
    send_raw(conn.get(), prefix, sizeof prefix);
    send_raw(conn.get(), "halfsent", 8);
  }

  // The daemon shrugged the torn connection off and keeps serving.
  EXPECT_EQ(run_daemon(args), local);
  for (int attempt = 0; attempt < 2500; ++attempt) {
    if (server_->stats().aborted_connections >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server_->stats().aborted_connections, 1u);
}

TEST_F(ServeTest, DrainUnlinksSocketAndLeavesNoLitter) {
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  start_daemon(2);
  ASSERT_EQ(run_daemon({"sim", "--netlist", netlist, "--stim", stim}).code, 0);
  ASSERT_TRUE(fs::exists(socket_));
  stop_daemon();
  EXPECT_FALSE(fs::exists(socket_)) << "drain must unlink the socket file";
  EXPECT_TRUE(tmp_litter().empty());
  // A fresh daemon binds the same path again immediately.
  start_daemon(1);
  EXPECT_EQ(run_daemon({"sim", "--netlist", netlist, "--stim", stim}).code, 0);
}

TEST_F(ServeTest, StaleSocketFileIsReboundLiveOneRefused) {
  {
    // A crashed daemon's leftover: the file exists, nobody accepts on it.
    const serve::UnixFd stale = serve::listen_unix(socket_);
  }
  ASSERT_TRUE(fs::exists(socket_));
  start_daemon(1);
  const std::string netlist = write("a.bench", kBenchA);
  EXPECT_EQ(run_daemon({"sta", "--netlist", netlist}).code, 0);

  // While this daemon lives, a second one must refuse the path.
  serve::ServeOptions options;
  options.socket_path = socket_;
  options.threads = 1;
  serve::Server second(options, [](const std::vector<std::string>&, serve::ServeContext&,
                                   serve::RequestIo&, std::ostream&,
                                   std::ostream&) { return 0; });
  try {
    second.run();
    FAIL() << "second daemon bound a live socket";
  } catch (const RunError& error) {
    EXPECT_EQ(error.kind(), RunErrorKind::kIoError);
    EXPECT_NE(std::string(error.what()).find("already in use"), std::string::npos);
  }
}

TEST_F(ServeTest, DaemonRestrictsItsCommandSurface) {
  start_daemon(1);
  const std::string netlist = write("a.bench", kBenchA);
  // lint is not daemon-routable: the client refuses before connecting.
  const Capture lint = run_args({"lint", netlist, "--connect", socket_});
  EXPECT_EQ(lint.code, 2);
  EXPECT_NE(lint.err.find("--connect routes sim, sta, fault and variation"),
            std::string::npos);
  // A hand-built frame for a non-routable command is refused daemon-side.
  serve::RequestFrame request;
  request.args = {"repro", "--list"};
  const serve::UnixFd conn = serve::connect_unix(socket_);
  serve::write_frame(conn.get(), serve::encode_request(request), nullptr);
  const std::optional<std::string> payload = serve::read_frame(conn.get(), nullptr, 5000);
  ASSERT_TRUE(payload.has_value());
  const serve::ResponseFrame response = serve::decode_response(*payload);
  EXPECT_EQ(response.exit_code, 2);
  EXPECT_NE(response.err.find("daemon serves sim, sta, fault and variation"),
            std::string::npos)
      << response.err;
}

TEST_F(ServeTest, UsageErrorsAreByteIdenticalUnderConnect) {
  start_daemon(1);
  const std::string netlist = write("a.bench", kBenchA);
  const std::string stim = write("a.stim", kStimA);
  // Caught by the client's own parse, and by the daemon's command.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"sim", "--netlist", netlist, "--stim", stim, "--hassh"},
        std::vector<std::string>{"sim", "--netlist", netlist, "--stim", stim, "--threads",
                                 "2", "--report"}}) {
    const Capture local = run_args(args);
    EXPECT_EQ(local.code, 2) << local.err;
    EXPECT_EQ(run_daemon(args), local);
  }
}

TEST_F(ServeTest, RandomizedFailureSoakNeverWedgesTheDaemon) {
  const std::string stim = write("a.stim", kStimA);
  // Golden and daemon runs name the SAME --vcd path (the "wrote PATH" line
  // is part of the byte image); the golden bytes are captured before the
  // daemon round overwrites the file.
  const std::string vcd_path = (dir_ / "soak.vcd").string();
  start_daemon(2);

  // Every daemon-side serve.* site plus the client-side io.* artifact
  // sites (the daemon itself never writes files for a client).
  const std::vector<std::string> sites{
      "serve.accept",   "serve.frame.read", "serve.frame.write", "serve.exec",
      "serve.cache",    "io.open",          "io.write",          "io.write.short",
      "io.rename",      "io.close"};
  std::mt19937 rng(20260807);
  for (int round = 0; round < 24; ++round) {
    // A unique netlist per round forces a cache miss, so serve.cache and
    // the whole build path stay reachable every round.
    const std::string netlist =
        write("a.bench", std::string(kBenchA) + "# soak round " +
                             std::to_string(round) + "\n");
    const std::vector<std::string> args{"sim",   "--netlist", netlist, "--stim", stim,
                                        "--hash", "--vcd",    vcd_path};
    const Capture golden = run_args(args);
    ASSERT_EQ(golden.code, 0) << "round " << round;
    const std::string golden_vcd = read_file(vcd_path);

    const std::string& site = sites[rng() % sites.size()];
    FailPoints::instance().arm(site, 1 + rng() % 2);
    const Capture faulted = run_daemon(args);
    FailPoints::instance().disarm_all();
    // The injected failure may or may not have fired on this request; it
    // must never produce a wrong-but-successful run: a 0 exit means the
    // full local byte image, artifact included.
    if (faulted.code == 0) {
      EXPECT_EQ(faulted.out, golden.out) << "round " << round << " site " << site;
      EXPECT_EQ(read_file(vcd_path), golden_vcd)
          << "round " << round << " site " << site;
    }

    // Whatever just happened, the very next request is bit-identical.
    const Capture recovered = run_daemon(args);
    EXPECT_EQ(recovered.code, 0) << "round " << round << " site " << site
                                 << " left the daemon unserviceable: " << recovered.err;
    EXPECT_EQ(recovered.out, golden.out) << "round " << round << " site " << site;
    EXPECT_EQ(recovered.err, golden.err) << "round " << round << " site " << site;
    EXPECT_EQ(read_file(vcd_path), golden_vcd)
        << "round " << round << " site " << site;
    ASSERT_TRUE(fs::exists(socket_)) << "round " << round << " site " << site;
    const std::vector<std::string> litter = tmp_litter();
    EXPECT_TRUE(litter.empty()) << "round " << round << " site " << site << " left "
                                << litter.size() << " temp file(s): " << litter.front();
  }
}

}  // namespace
}  // namespace halotis
