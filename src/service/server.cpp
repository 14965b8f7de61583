#include "service/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "runtime/session.hpp"
#include "support/framing.hpp"
#include "support/hash.hpp"
#include "support/timer.hpp"

namespace dpart::service {

namespace {

[[noreturn]] void setupFail(const std::string& what) {
  throw TransportError(0, "plan server: " + what + ": " +
                              std::strerror(errno));
}

/// Latency histogram bounds (milliseconds): sub-ms warm hits through
/// multi-second cold solves.
std::vector<double> latencyBoundsMs() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
          1000, 2500, 5000, 10000};
}

/// Upper bound of the bucket where the q-quantile falls (the conventional
/// conservative histogram-quantile estimate).
double histogramQuantile(const MetricHistogram& h, double q) {
  const std::uint64_t total = h.count();
  if (total == 0) return 0;
  const auto buckets = h.bucketCounts();
  const auto& bounds = h.bounds();
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      return i < bounds.size() ? bounds[i]
                               : bounds.empty() ? 0 : bounds.back();
    }
  }
  return bounds.empty() ? 0 : bounds.back();
}

}  // namespace

PlanServer::PlanServer(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity) {}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  DPART_CHECK(!started_, "PlanServer::start called twice");
  DPART_CHECK(options_.workers > 0, "PlanServer needs at least one worker");
  if (!options_.unixPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    DPART_CHECK(options_.unixPath.size() < sizeof(addr.sun_path),
                "unix socket path too long");
    std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) setupFail("socket");
    ::unlink(options_.unixPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      setupFail("bind " + options_.unixPath);
    }
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) setupFail("socket");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcpPort);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      setupFail("bind 127.0.0.1:" + std::to_string(options_.tcpPort));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      setupFail("getsockname");
    }
    boundPort_ = ntohs(bound.sin_port);
  }
  if (::listen(listenFd_, SOMAXCONN) < 0) setupFail("listen");

  started_ = true;
  stopping_ = false;
  acceptThread_ = std::thread([this] { acceptLoop(); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

void PlanServer::beginStop() {
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    if (stopping_) return;
    stopping_ = true;
    // A worker parked in recvFrame on an idle client sees EOF now instead
    // of waiting out recvTimeoutMicros; replies still being written go out.
    for (const int fd : serving_) ::shutdown(fd, SHUT_RD);
  }
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  queueCv_.notify_all();
  stopCv_.notify_all();
}

void PlanServer::stop() {
  if (!started_) return;
  beginStop();
  if (acceptThread_.joinable()) acceptThread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    for (const PendingConn& c : queue_) ::close(c.fd);
    queue_.clear();
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!options_.unixPath.empty()) ::unlink(options_.unixPath.c_str());
  started_ = false;
}

void PlanServer::waitForStopRequest() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  stopCv_.wait(lock, [this] { return stopping_; });
}

bool PlanServer::running() const { return started_; }

MetricsRegistry& PlanServer::tenantMetrics(const std::string& tenant) {
  const std::string name = tenant.empty() ? "anonymous" : tenant;
  std::lock_guard<std::mutex> lock(tenantsMutex_);
  auto& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<MetricsRegistry>();
    service_.gauge("service.tenants")
        .set(static_cast<double>(tenants_.size()));
  }
  return *slot;
}

std::string PlanServer::statsJson(const std::string& tenant) {
  if (!tenant.empty()) return tenantMetrics(tenant).toJson();
  MetricHistogram& lat =
      service_.histogram("service.latencyMs", latencyBoundsMs());
  service_.gauge("service.latency.p50Ms").set(histogramQuantile(lat, 0.50));
  service_.gauge("service.latency.p99Ms").set(histogramQuantile(lat, 0.99));
  const parallelize::SolveCache::Stats cs = cache_.stats();
  service_.gauge("service.cache.entries")
      .set(static_cast<double>(cs.entries));
  {
    std::lock_guard<std::mutex> lock(responseCacheMutex_);
    service_.gauge("service.cache.exactEntries")
        .set(static_cast<double>(responseCache_.size()));
  }
  return service_.toJson();
}

void PlanServer::acceptLoop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      if (stopping_) return;
    }
    pollfd pfd{listenFd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;  // raced with shutdown or transient error
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      if (!stopping_ && queue_.size() < options_.queueCapacity) {
        queue_.push_back(PendingConn{fd, monotonicMicros()});
        service_.gauge("service.queue.depth")
            .set(static_cast<double>(queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queueCv_.notify_one();
    } else {
      // Admission control: refuse rather than queue unboundedly. The
      // refusal is best-effort — a client that already vanished is just
      // closed.
      service_.counter("service.rejected").inc();
      try {
        sendError(fd, ErrorCode::Overloaded,
                  "plan service admission queue is full (capacity " +
                      std::to_string(options_.queueCapacity) +
                      "); retry later");
      } catch (const Error&) {
      }
      ::close(fd);
    }
  }
}

void PlanServer::workerLoop() {
  while (true) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      conn = queue_.front();
      queue_.pop_front();
      serving_.push_back(conn.fd);
      service_.gauge("service.queue.depth")
          .set(static_cast<double>(queue_.size()));
    }
    serveConnection(conn);
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      std::erase(serving_, conn.fd);
    }
    ::close(conn.fd);
  }
}

void PlanServer::serveConnection(PendingConn conn) {
  service_
      .histogram("service.queueWaitMs",
                 {0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000})
      .observe(static_cast<double>(monotonicMicros() - conn.enqueuedMicros) /
               1000.0);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      if (stopping_) return;
    }
    std::optional<framing::RawFrame> frame;
    try {
      frame = framing::recvFrame(
          conn.fd, options_.recvTimeoutMicros, options_.maxFrameBytes,
          /*node=*/0, static_cast<std::uint8_t>(MsgType::Request),
          static_cast<std::uint8_t>(MsgType::Shutdown));
    } catch (const TransportError&) {
      // Malformed frame, CRC mismatch, mid-frame EOF or idle timeout: the
      // connection is unusable — count it and drop the client. The server
      // must survive hostile bytes; only this connection pays.
      service_
          .counter("service.errors",
                   {{"kind", toString(ErrorCode::Transport)}})
          .inc();
      return;
    }
    if (!frame) return;  // clean EOF between frames
    switch (static_cast<MsgType>(frame->type)) {
      case MsgType::Request:
        try {
          handleRequest(conn.fd, frame->payload);
        } catch (const TransportError&) {
          return;  // client went away mid-reply
        }
        break;
      case MsgType::StatsRequest: {
        std::string tenant;
        try {
          BinaryReader r(frame->payload);
          tenant = decodeString(r);
        } catch (const Error&) {
          return;
        }
        try {
          framing::sendFrame(conn.fd,
                             static_cast<std::uint8_t>(MsgType::StatsReply),
                             encodeString(statsJson(tenant)), /*node=*/0);
        } catch (const TransportError&) {
          return;
        }
        break;
      }
      case MsgType::Shutdown:
        beginStop();
        return;
      default:
        // Response/StatsReply/ErrorReply are server->client only.
        sendError(conn.fd, ErrorCode::BadRequest,
                  std::string("unexpected ") +
                      toString(static_cast<MsgType>(frame->type)) +
                      " frame from a client");
        return;
    }
  }
}

std::optional<PlanResponse> PlanServer::responseCacheLookup(
    std::uint64_t key) {
  std::lock_guard<std::mutex> lock(responseCacheMutex_);
  const auto it = responseCache_.find(key);
  if (it == responseCache_.end()) return std::nullopt;
  return it->second;
}

void PlanServer::responseCacheInsert(std::uint64_t key,
                                     const PlanResponse& resp) {
  std::lock_guard<std::mutex> lock(responseCacheMutex_);
  // First insert wins: concurrent compiles of the same request all produce
  // the same plan (the L2 cache guarantees it), so keeping the first keeps
  // responses bitwise stable.
  if (!responseCache_.emplace(key, resp).second) return;
  responseCacheOrder_.push_back(key);
  while (responseCacheOrder_.size() > options_.responseCacheCapacity) {
    responseCache_.erase(responseCacheOrder_.front());
    responseCacheOrder_.pop_front();
  }
}

void PlanServer::sendError(int fd, ErrorCode code, const std::string& what) {
  framing::sendFrame(fd, static_cast<std::uint8_t>(MsgType::ErrorReply),
                     encodeError(ErrorReplyMsg{code, what}), /*node=*/0);
}

void PlanServer::handleRequest(int fd,
                               const std::vector<std::uint8_t>& payload) {
  const std::uint64_t t0 = monotonicMicros();
  std::string tenant;
  try {
    PlanRequest req;
    try {
      BinaryReader r(payload);
      req = decodeRequest(r);
    } catch (const CheckpointCorruption& e) {
      // Bounds-checked payload decoding failed: structurally valid frame,
      // malformed request inside.
      throw BadRequest(std::string("malformed request payload: ") + e.what());
    }
    tenant = req.tenant;
    if (req.pieces == 0) {
      throw BadRequest("request must set pieces > 0");
    }

    // L1: the tenant travels first on the wire as (u64 length, bytes), so
    // hashing everything after it keys the memo on the exact request —
    // pieces, flags, shapes and program — while staying tenant-agnostic.
    // A byte-identical resubmission from any tenant is answered from the
    // finished response without materializing a World or re-canonicalizing
    // the constraint graph.
    std::uint64_t memoKey = 0;
    const std::size_t tenantPrefix = sizeof(std::uint64_t) + tenant.size();
    const bool memoEnabled = options_.responseCacheCapacity > 0 &&
                             payload.size() >= tenantPrefix;
    if (memoEnabled) {
      memoKey = fnv1a64(std::string_view(
          reinterpret_cast<const char*>(payload.data()) + tenantPrefix,
          payload.size() - tenantPrefix));
      if (std::optional<PlanResponse> hit = responseCacheLookup(memoKey)) {
        PlanResponse resp = std::move(*hit);
        resp.cacheHit = true;
        // No compile ran; the phase timings belong to the request that
        // populated the memo, not this one.
        resp.inferMs = resp.canonMs = resp.unifyMs = resp.solveMs =
            resp.rewriteMs = 0;
        resp.serverMs =
            static_cast<double>(monotonicMicros() - t0) / 1000.0;

        service_.counter("service.requests").inc();
        service_.counter("service.cache.hits").inc();
        service_.counter("service.cache.exactHits").inc();
        service_.histogram("service.latencyMs", latencyBoundsMs())
            .observe(resp.serverMs);
        MetricsRegistry& tm = tenantMetrics(tenant);
        tm.counter("tenant.requests").inc();
        tm.counter("tenant.cache.hits").inc();
        tm.gauge("tenant.lastLatencyMs").set(resp.serverMs);

        framing::sendFrame(fd, static_cast<std::uint8_t>(MsgType::Response),
                           encodeResponse(resp), /*node=*/0);
        return;
      }
    }

    region::World world = req.world.materialize(options_.maxRegionElements);

    // Vocabulary *shape* errors are the client's fault (BadRequest);
    // *infeasibility* is only ever decided by the solver and travels as its
    // own stable code (ErrorCode::Infeasible).
    const std::string problem = parallelize::vocabularyProblem(
        req.vocab, world, static_cast<std::size_t>(req.pieces));
    if (!problem.empty()) throw BadRequest(problem);

    parallelize::Options copts;
    copts.enableRelaxation = req.enableRelaxation;
    copts.enableDisjointReduction = req.enableDisjointReduction;
    copts.enablePrivateSubPartitions = req.enablePrivateSubPartitions;
    copts.enableUnification = req.enableUnification;
    copts.solveCache = &cache_;
    copts.vocab = req.vocab;

    Plan plan;
    {
      DPART_TRACE_SPAN(options_.tracer, "service", "service.request");
      plan = Session::parallelize(req.program)
                 .pieces(static_cast<std::size_t>(req.pieces))
                 .compileOptions(copts)
                 .compile(world, options_.tracer);
    }

    PlanResponse resp;
    const parallelize::CompileStats& st = plan.stats();
    resp.cacheKey = st.cacheKey;
    resp.cacheHit = st.cacheHit;
    resp.inferMs = st.inferMs;
    resp.canonMs = st.canonMs;
    resp.unifyMs = st.unifyMs;
    resp.solveMs = st.solveMs;
    resp.rewriteMs = st.rewriteMs;
    resp.parallelLoops = st.parallelLoops;
    resp.propagations = st.solve.propagations;
    resp.prunes = st.solve.prunes;
    resp.branches = st.solve.branches;
    resp.backtracks = st.solve.backtracks;
    resp.restarts = st.solve.restarts;
    resp.dpl = plan.parallelPlan().dpl.toString();
    for (const parallelize::PlannedLoop& pl : plan.parallelPlan().loops) {
      resp.loops.push_back(
          LoopPlanInfo{pl.loop->name, pl.iterPartition, pl.relaxed});
    }
    for (const std::string& s : plan.parallelPlan().externalSymbols) {
      resp.externalSymbols.push_back(s);
    }
    resp.serverMs = static_cast<double>(monotonicMicros() - t0) / 1000.0;

    if (memoEnabled) responseCacheInsert(memoKey, resp);

    // Metrics first, reply second: a client that has its response in hand
    // must be able to observe the request in the counters.
    service_.counter("service.requests").inc();
    service_.counter(st.cacheHit ? "service.cache.hits"
                                 : "service.cache.misses")
        .inc();
    service_.histogram("service.latencyMs", latencyBoundsMs())
        .observe(resp.serverMs);
    MetricsRegistry& tm = tenantMetrics(tenant);
    tm.counter("tenant.requests").inc();
    tm.counter(st.cacheHit ? "tenant.cache.hits" : "tenant.cache.misses")
        .inc();
    tm.gauge("tenant.lastLatencyMs").set(resp.serverMs);

    framing::sendFrame(fd, static_cast<std::uint8_t>(MsgType::Response),
                       encodeResponse(resp), /*node=*/0);
  } catch (const TransportError&) {
    throw;  // reply could not be delivered; caller drops the connection
  } catch (const Error& e) {
    // The whole taxonomy travels as (stable code, message).
    service_.counter("service.requests").inc();
    service_
        .counter("service.errors", {{"kind", toString(e.errorCode())}})
        .inc();
    tenantMetrics(tenant)
        .counter("tenant.errors", {{"kind", toString(e.errorCode())}})
        .inc();
    sendError(fd, e.errorCode(), e.what());
  }
}

}  // namespace dpart::service
