// Network ingest-plane throughput: the ISSUE-7 acceptance bench. A parent
// process binds the listening socket, forks N real client *processes* (true
// multi-process loopback — separate address spaces, kernel TCP in between),
// then brings up a NetServer that adopts the socket. Each child streams one
// synthetic NSRDB-like record over XBSP (CHUNK frames), pulls its EVENT
// stream back, closes the record and validates its own ledger; the parent
// aggregates wall-clock, byte and event totals from the server. Both the
// exact datapath and the paper's B9 approximate configuration run, and the
// result is one JSON object (committed as BENCH_net.json so future PRs have
// a machine-readable baseline).
//
//   ./bench_net_throughput [--clients N] [--samples M] [--chunk C]
//                          [--shards S] [--workers W]
//
// Fork-before-threads is load-bearing: the NetServer (epoll loop + stream
// workers) is constructed only after every fork, so no child ever inherits a
// half-alive thread's state. The children connect before the server exists —
// the already-listening socket's backlog holds them until the loop starts.
//
// Exits non-zero on any dirty run: a failed child, a protocol error, shed
// events, a faulted session, or zero detected beats.
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/net/client.hpp"
#include "xbs/net/server.hpp"

namespace {

using namespace xbs;

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

/// Bind 127.0.0.1:ephemeral and listen; returns the fd and fills \p port.
int bind_listener(u16& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// The child body: stream one record over the wire, validate the ledger.
/// Runs in a forked process; must not touch parent stdio — exit code only.
int client_run(u16 port, u64 token, const std::vector<i32>& adu, std::size_t chunk,
               const std::array<i32, pantompkins::kNumStages>& lsbs) {
  try {
    net::NetClient cli;
    cli.connect("127.0.0.1", port, std::chrono::milliseconds(10000));
    net::OpenFrame f;
    f.token = token;
    f.lsbs = lsbs;
    (void)cli.open(f);
    std::vector<stream::Event> events;
    const std::span<const i32> feed(adu);
    for (std::size_t at = 0; at < feed.size(); at += chunk) {
      cli.send_chunk(feed.subspan(at, std::min(chunk, feed.size() - at)));
      (void)cli.take_events(events);  // keep the egress moving
    }
    const net::StatsFrame st = cli.close_session();
    (void)cli.take_events(events);
    const u64 n_chunks = (feed.size() + chunk - 1) / chunk;
    const bool clean = st.samples == feed.size() && st.chunks_in == n_chunks &&
                       st.chunks_processed == n_chunks && st.dropped_chunks == 0 &&
                       st.net_events_shed == 0 && st.beats > 0 &&
                       st.events == events.size();
    return clean ? 0 : 1;
  } catch (...) {
    return 2;
  }
}

struct PassResult {
  double samples_per_sec = 0.0;
  u64 beats = 0;
  u64 events_sent = 0;
  u64 events_shed = 0;
  u64 bytes_in = 0;
  u64 bytes_out = 0;
  bool clean = true;
};

PassResult run_pass(int clients, const std::vector<std::vector<i32>>& feeds,
                    std::size_t chunk, unsigned shards, unsigned workers,
                    const std::array<i32, pantompkins::kNumStages>& lsbs) {
  using Clock = std::chrono::steady_clock;
  PassResult out;
  u16 port = 0;
  const int listen_fd = bind_listener(port);
  if (listen_fd < 0) {
    out.clean = false;
    return out;
  }

  // Fork every client first: no threads exist yet in this process.
  const Clock::time_point t0 = Clock::now();
  std::vector<pid_t> pids;
  for (int i = 0; i < clients; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(listen_fd);  // the parent's to own
      const int rc = client_run(port, 0x1000u + static_cast<u64>(i),
                                feeds[static_cast<std::size_t>(i)], chunk, lsbs);
      ::_exit(rc);  // never unwind into the parent's stdio/atexit state
    }
    if (pid < 0) out.clean = false;
    if (pid > 0) pids.push_back(pid);
  }

  u64 samples = 0;
  {
    net::NetServer::Options no;
    no.listen_fd = listen_fd;  // adopt: children are already in the backlog
    no.stream.max_sessions = static_cast<std::size_t>(clients);
    no.stream.queue_capacity_chunks = 64;
    no.stream.workers = workers;
    no.stream.shards = shards;
    no.stream.event_queue_capacity = 4096;
    net::NetServer server(no);

    for (const pid_t pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        out.clean = false;
      }
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

    // Every child closed its record; the slots are Closed-but-unreleased, so
    // the stream layer's aggregate still carries their counters.
    const auto ss = server.stream().stats();
    samples = ss.samples;
    out.beats = ss.beats;
    if (ss.faulted != 0 || ss.dropped_chunks != 0 || ss.beats == 0) out.clean = false;
    const auto ns = server.stats();
    out.events_sent = ns.events_sent;
    out.events_shed = ns.events_shed;
    out.bytes_in = ns.bytes_in;
    out.bytes_out = ns.bytes_out;
    if (ns.protocol_errors != 0 || ns.events_shed != 0) out.clean = false;
    if (wall > 0.0) out.samples_per_sec = static_cast<double>(samples) / wall;
  }  // the server (and all its threads) is gone before the next pass forks
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = std::max(1, arg_int(argc, argv, "--clients", 4));
  const int samples = std::max(1000, arg_int(argc, argv, "--samples", 20000));
  const auto chunk =
      static_cast<std::size_t>(std::max(1, arg_int(argc, argv, "--chunk", 64)));
  const auto shards = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--shards", 0)));
  const auto workers = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--workers", 0)));

  std::vector<std::vector<i32>> feeds;
  feeds.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    feeds.push_back(
        ecg::nsrdb_like_digitized(i, static_cast<std::size_t>(samples)).adu);
  }

  const std::array<i32, pantompkins::kNumStages> exact_lsbs{};
  const std::array<i32, pantompkins::kNumStages> b9_lsbs = {10, 12, 2, 8, 16};
  const PassResult exact = run_pass(clients, feeds, chunk, shards, workers, exact_lsbs);
  const PassResult b9 = run_pass(clients, feeds, chunk, shards, workers, b9_lsbs);

  std::printf(
      "{\n"
      "  \"bench\": \"net_throughput\",\n"
      "  \"isa\": \"%.*s\",\n"
      "  \"workload\": \"nsrdb_like_xbsp_loopback_multiprocess\",\n"
      "  \"clients\": %d,\n"
      "  \"samples_per_client\": %d,\n"
      "  \"chunk_samples\": %zu,\n"
      "  \"exact_samples_per_sec\": %.0f,\n"
      "  \"exact_beats\": %llu,\n"
      "  \"exact_events_sent\": %llu,\n"
      "  \"exact_bytes_in\": %llu,\n"
      "  \"exact_bytes_out\": %llu,\n"
      "  \"b9_samples_per_sec\": %.0f,\n"
      "  \"b9_beats\": %llu,\n"
      "  \"b9_events_sent\": %llu,\n"
      "  \"b9_bytes_in\": %llu,\n"
      "  \"b9_bytes_out\": %llu,\n"
      "  \"events_shed\": %llu,\n"
      "  \"realtime_streams_supported_exact\": %.0f,\n"
      "  \"realtime_streams_supported_b9\": %.0f\n"
      "}\n",
      static_cast<int>(to_string(arith::kernel_isa().selected).size()),
      to_string(arith::kernel_isa().selected).data(), clients, samples, chunk,
      exact.samples_per_sec, static_cast<unsigned long long>(exact.beats),
      static_cast<unsigned long long>(exact.events_sent),
      static_cast<unsigned long long>(exact.bytes_in),
      static_cast<unsigned long long>(exact.bytes_out), b9.samples_per_sec,
      static_cast<unsigned long long>(b9.beats),
      static_cast<unsigned long long>(b9.events_sent),
      static_cast<unsigned long long>(b9.bytes_in),
      static_cast<unsigned long long>(b9.bytes_out),
      static_cast<unsigned long long>(exact.events_shed + b9.events_shed),
      exact.samples_per_sec / 200.0,  // 200 Hz ECG streams
      b9.samples_per_sec / 200.0);

  return (exact.clean && b9.clean) ? 0 : 1;
}
