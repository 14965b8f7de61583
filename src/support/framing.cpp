#include "support/framing.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <string>

#include "support/check.hpp"
#include "support/serialize.hpp"
#include "support/timer.hpp"

namespace dpart::framing {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'D', 'P', 'M', 'G'};

void putU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void putU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t getU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[i]) << (8 * i);
  return v;
}

std::uint64_t getU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[i]) << (8 * i);
  return v;
}

[[noreturn]] void transportFail(std::size_t node, const std::string& what) {
  ErrorContext ctx;
  ctx.piece = -1;
  throw TransportError(node, "transport: " + what + " (node " +
                                 std::to_string(node) + ")",
                       std::move(ctx));
}

/// Reads exactly n bytes under the deadline. Returns false on EOF before
/// the first byte when allowEof; throws TransportError otherwise.
bool readFully(int fd, std::uint8_t* buf, std::size_t n,
               std::uint64_t timeoutMicros, std::size_t node, bool allowEof) {
  const std::uint64_t deadline =
      timeoutMicros == 0 ? 0 : monotonicMicros() + timeoutMicros;
  std::size_t got = 0;
  while (got < n) {
    int waitMs = -1;
    if (deadline != 0) {
      const std::uint64_t now = monotonicMicros();
      if (now >= deadline) {
        transportFail(node, "recv timed out after " +
                                std::to_string(timeoutMicros) + "us (" +
                                std::to_string(got) + "/" +
                                std::to_string(n) + " bytes)");
      }
      waitMs = static_cast<int>((deadline - now) / 1000 + 1);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, waitMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      transportFail(node, std::string("poll: ") + std::strerror(errno));
    }
    if (pr == 0) continue;  // re-check the deadline
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      transportFail(node, std::string("recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && allowEof) return false;
      transportFail(node, "peer closed mid-frame (" + std::to_string(got) +
                              "/" + std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void writeFully(int fd, const std::uint8_t* buf, std::size_t n,
                std::size_t node) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE (-> TransportError) instead of
    // killing the process with SIGPIPE.
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      transportFail(node, std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

}  // namespace

void sendFrame(int fd, std::uint8_t type, std::span<const std::uint8_t> payload,
               std::size_t node, NetCounters* counters,
               const std::function<void(std::vector<std::uint8_t>&)>& tamper) {
  std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size());
  std::memcpy(frame.data(), kMagic.data(), kMagic.size());
  frame[4] = type;
  putU64(frame.data() + 5, payload.size());
  putU32(frame.data() + 13, crc32(payload));
  if (tamper) {
    // Silent-corruption model, as in writeFramedFile: the checksum was
    // computed from the intact payload, then the bytes on the wire are
    // damaged — the receiver must catch the mismatch.
    std::vector<std::uint8_t> damaged(payload.begin(), payload.end());
    tamper(damaged);
    damaged.resize(payload.size());  // tamper may not change the length
    std::memcpy(frame.data() + kFrameHeaderSize, damaged.data(),
                damaged.size());
  } else if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderSize, payload.data(),
                payload.size());
  }
  writeFully(fd, frame.data(), frame.size(), node);
  if (counters != nullptr) {
    counters->bytesSent += frame.size();
    ++counters->messagesSent;
  }
}

std::optional<RawFrame> recvFrame(int fd, std::uint64_t timeoutMicros,
                                  std::uint64_t maxFrameBytes,
                                  std::size_t node, std::uint8_t minType,
                                  std::uint8_t maxType,
                                  NetCounters* counters) {
  std::array<std::uint8_t, kFrameHeaderSize> header;
  if (!readFully(fd, header.data(), header.size(), timeoutMicros, node,
                 /*allowEof=*/true)) {
    return std::nullopt;
  }
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    transportFail(node, "bad frame magic");
  }
  const std::uint8_t type = header[4];
  if (type < minType || type > maxType) {
    transportFail(node, "unknown frame type " + std::to_string(type));
  }
  const std::uint64_t size = getU64(header.data() + 5);
  // Cap check BEFORE the allocation the declared size would drive.
  if (size > maxFrameBytes) {
    transportFail(node, "frame declares " + std::to_string(size) +
                            " payload bytes, exceeding the " +
                            std::to_string(maxFrameBytes) + "-byte cap");
  }
  const std::uint32_t want = getU32(header.data() + 13);
  RawFrame frame;
  frame.type = type;
  frame.payload.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    readFully(fd, frame.payload.data(), frame.payload.size(), timeoutMicros,
              node, /*allowEof=*/false);
  }
  if (crc32(frame.payload) != want) {
    transportFail(node, "frame failed CRC32 check (type " +
                            std::to_string(type) + ")");
  }
  if (counters != nullptr) {
    counters->bytesRecv += kFrameHeaderSize + frame.payload.size();
    ++counters->messagesRecv;
  }
  return frame;
}

}  // namespace dpart::framing
