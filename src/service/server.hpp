#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "parallelize/solve_cache.hpp"
#include "service/protocol.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dpart::service {

/// Configuration of one PlanServer (docs/service.md).
struct ServerOptions {
  /// AF_UNIX listening socket path. When empty, the server listens on
  /// loopback TCP at `tcpPort` instead (0 = kernel-assigned; see port()).
  std::string unixPath;
  std::uint16_t tcpPort = 0;
  /// Bounded worker pool: how many requests compile concurrently.
  std::size_t workers = 4;
  /// Admission queue bound. A connection arriving with the queue full is
  /// refused with ErrorCode::Overloaded and closed.
  std::size_t queueCapacity = 256;
  /// Frame-size cap handed to the shared framing layer (checked before any
  /// allocation the declared size would drive).
  std::uint64_t maxFrameBytes = 64ull << 20;
  /// Per-connection receive deadline between frames. A client that goes
  /// quiet longer than this has its connection closed, releasing the
  /// worker. 0 waits forever (don't, outside tests).
  std::uint64_t recvTimeoutMicros = 5'000'000;
  /// Plan cache capacity (cross-tenant, keyed on the canonical
  /// constraint-graph hash; LRU beyond this many entries).
  std::size_t cacheCapacity = 1024;
  /// Exact-request response memo capacity (the L1 in front of the
  /// canonical cache): finished responses keyed on the raw request bytes
  /// with the tenant field excluded, so a byte-identical resubmission —
  /// from any tenant — skips decoding shapes into a World and
  /// re-canonicalizing the constraint graph entirely. FIFO beyond this
  /// many entries; 0 disables it.
  std::size_t responseCacheCapacity = 256;
  /// Largest region a request may declare; bounds the compile-only World
  /// materialization a hostile shape could drive.
  region::Index maxRegionElements = region::Index(1) << 28;
  /// Optional tracer (borrowed): each request is recorded as a
  /// "service.request" span with the compile phases nested inside.
  Tracer* tracer = nullptr;
};

/// Multi-tenant partitioning-as-a-service front end.
///
/// A long-running server that accepts parallelize requests — serialized
/// loop IR plus region shapes — over AF_UNIX or loopback TCP, compiles
/// them through the regular SessionBuilder::compile() pipeline, and replies
/// with the synthesized plan. The plan cache is two-level: an exact-request
/// response memo (L1, keyed on the raw request bytes minus the tenant)
/// absorbs byte-identical resubmissions without touching the compiler at
/// all, and all tenants share one SolveCache (L2) keyed on the
/// unification-canonical constraint-graph hash, so isomorphic programs
/// across tenants cost one solve total; per-tenant request/hit/miss/error
/// counts are isolated in one MetricsRegistry per tenant, with
/// service-level rollups (service.requests, service.cache.{hits,misses},
/// service.queue.depth, latency histogram + p50/p99 gauges) in the service
/// registry. Failures travel back as the structured error taxonomy with
/// stable numeric codes.
///
/// Threading: one accept thread feeds a bounded admission queue of
/// connections; `workers` worker threads pop connections and serve them to
/// completion (a connection may carry many sequential requests). stop() —
/// or a Shutdown frame from any client — drains everything and joins.
class PlanServer {
 public:
  explicit PlanServer(ServerOptions options);
  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;
  ~PlanServer();

  /// Binds, listens and launches the accept/worker threads. Throws
  /// TransportError when the socket cannot be set up.
  void start();

  /// Requests shutdown, drains the queue and joins all threads. Connected
  /// idle clients are dropped at once rather than after recvTimeoutMicros;
  /// a request already compiling still gets its reply. Safe to call twice;
  /// called by the destructor. Must not be called from a worker thread (a
  /// Shutdown frame triggers the non-joining half).
  void stop();

  /// Blocks until a stop was requested (Shutdown frame or stop()). The
  /// dpart-serve main loop parks here.
  void waitForStopRequest();

  /// The non-joining half of stop(): requests shutdown and returns
  /// immediately. Safe from signal-handler-ish contexts and worker threads;
  /// follow up with stop() from a regular thread to join.
  void requestStop() { beginStop(); }

  [[nodiscard]] bool running() const;

  /// Bound TCP port (TCP mode only; valid after start()).
  [[nodiscard]] std::uint16_t port() const { return boundPort_; }
  [[nodiscard]] const std::string& unixPath() const {
    return options_.unixPath;
  }

  /// Service-level rollup metrics (live; thread-safe).
  [[nodiscard]] MetricsRegistry& serviceMetrics() { return service_; }

  /// The per-tenant registry, created on first use. "" maps to
  /// "anonymous".
  [[nodiscard]] MetricsRegistry& tenantMetrics(const std::string& tenant);

  /// Cross-tenant plan cache statistics.
  [[nodiscard]] parallelize::SolveCache::Stats cacheStats() const {
    return cache_.stats();
  }

  /// The JSON document a StatsRequest for `tenant` returns ("" = service
  /// rollup, with latency p50/p99 gauges refreshed from the histogram).
  [[nodiscard]] std::string statsJson(const std::string& tenant);

 private:
  struct PendingConn {
    int fd = -1;
    std::uint64_t enqueuedMicros = 0;
  };

  void acceptLoop();
  void workerLoop();
  /// Serves one connection until EOF, error, timeout or shutdown.
  void serveConnection(PendingConn conn);
  /// Handles one Request frame; always answers with Response or ErrorReply
  /// (send failures propagate as TransportError to the caller).
  void handleRequest(int fd, const std::vector<std::uint8_t>& payload);
  void sendError(int fd, ErrorCode code, const std::string& what);
  /// The non-joining half of stop(): flips the flag and wakes everyone.
  void beginStop();

  /// L1 lookup/insert (thread-safe; first insert wins, FIFO eviction).
  [[nodiscard]] std::optional<PlanResponse> responseCacheLookup(
      std::uint64_t key);
  void responseCacheInsert(std::uint64_t key, const PlanResponse& resp);

  ServerOptions options_;
  parallelize::SolveCache cache_;
  MetricsRegistry service_;

  std::mutex responseCacheMutex_;
  std::unordered_map<std::uint64_t, PlanResponse> responseCache_;
  std::deque<std::uint64_t> responseCacheOrder_;

  std::mutex tenantsMutex_;
  std::map<std::string, std::unique_ptr<MetricsRegistry>> tenants_;

  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;
  std::thread acceptThread_;
  std::vector<std::thread> workers_;

  std::mutex queueMutex_;
  /// Wakes workers (new connection admitted, or stopping). Stop-watchers
  /// wait on stopCv_ instead: sharing one CV would let an admission's
  /// notify_one land on a thread parked in waitForStopRequest(), which
  /// re-checks its predicate and swallows the wakeup — the queued
  /// connection would never be served.
  std::condition_variable queueCv_;
  std::condition_variable stopCv_;
  std::deque<PendingConn> queue_;
  /// Fds of the connections workers are serving, so beginStop() can shut
  /// down their read side. A worker removes its fd before closing it, so a
  /// shutdown never reaches a closed or reused descriptor.
  std::vector<int> serving_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace dpart::service
