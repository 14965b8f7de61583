#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runtime/task_exec.hpp"
#include "support/check.hpp"
#include "support/framing.hpp"
#include "support/serialize.hpp"

namespace dpart::runtime::dist {

/// Wire protocol of the multi-process backend (docs/distributed-backend.md).
///
/// Every message travels as one "DPMG" CRC-framed message on an AF_UNIX
/// stream socket — the shared frame layer lives in support/framing (also
/// spoken by the plan service); this module contributes the backend's
/// message-type vocabulary and payload codecs, reusing the bounds-checked
/// BinaryReader for payload decoding.

enum class MsgType : std::uint8_t {
  Hello = 1,      ///< worker -> coordinator: ready (nodeId, epoch)
  Task = 2,       ///< coordinator -> worker: refresh slices + launch order
  Result = 3,     ///< worker -> coordinator: write-back slices + buffers
  TaskError = 4,  ///< worker -> coordinator: task raised a taxonomy error
  Ping = 5,       ///< coordinator -> worker (control channel)
  Pong = 6,       ///< worker -> coordinator (control channel)
  Shutdown = 7,   ///< coordinator -> worker: exit cleanly
};

[[nodiscard]] const char* toString(MsgType t);

/// One received frame.
struct Frame {
  MsgType type = MsgType::Hello;
  std::vector<std::uint8_t> payload;
};

/// Send/receive tallies of one endpoint (coordinator keeps one per run and
/// publishes it as the executor.net.* metrics).
using NetCounters = framing::NetCounters;

/// Writes one frame to `fd`. `node` only labels the TransportError thrown
/// on a send failure (EPIPE to a dead worker, etc.). `tamper`, when set, is
/// applied to a copy of the payload AFTER the checksum is computed — the
/// hook "net:" Poison fault sites use to put a genuinely corrupt frame on
/// the wire that the receiver must reject by CRC.
void sendFrame(int fd, MsgType type, std::span<const std::uint8_t> payload,
               std::size_t node, NetCounters* counters = nullptr,
               const std::function<void(std::vector<std::uint8_t>&)>& tamper =
                   {});

/// Reads one frame from `fd` under a deadline. Returns std::nullopt on a
/// clean EOF at a frame boundary (peer closed between messages). Throws
/// TransportError(node) on: poll timeout (`timeoutMicros`; 0 = wait
/// forever), EOF mid-frame, socket error, bad magic, unknown type, a
/// declared payload size above `maxFrameBytes` (checked before
/// allocation), or CRC mismatch.
[[nodiscard]] std::optional<Frame> recvFrame(int fd,
                                             std::uint64_t timeoutMicros,
                                             std::uint64_t maxFrameBytes,
                                             std::size_t node,
                                             NetCounters* counters = nullptr);

/// The payload units, defined by the launch core both backends share:
/// a field slice (refresh and write-back) and one reduce statement's
/// buffered contributions.
using runtime::FieldSlice;
using runtime::ReduceSlice;

/// Launch order for one task (Task payload).
struct TaskMsg {
  std::uint64_t seq = 0;    ///< launch sequence number, echoed by Result
  std::string loop;         ///< planned loop name
  std::uint64_t piece = 0;  ///< task index j
  std::vector<FieldSlice> refresh;  ///< stale cells to overwrite before run
};

/// Task outcome (Result payload).
struct ResultMsg {
  std::uint64_t seq = 0;
  std::uint64_t piece = 0;
  std::vector<FieldSlice> writes;  ///< the task's in-place write footprint
  std::vector<ReduceSlice> reduces;  ///< sorted by stmtId
  double taskSeconds = 0;  ///< worker-side thread CPU seconds
};

/// Task raised a taxonomy error worker-side (TaskError payload). The
/// stable numeric code (ErrorCode in support/check.hpp) is authoritative —
/// the coordinator switches on it to rethrow the right taxonomy subclass;
/// `kind` is its rendered name, kept on the wire for log lines and the
/// errorsTotal metric label.
struct TaskErrorMsg {
  std::uint64_t seq = 0;
  std::uint64_t piece = 0;
  std::string kind;  ///< toString(code): "PartitionViolation", "Error", ...
  std::string what;  ///< full message (ErrorContext already rendered in)
  ErrorCode code = ErrorCode::Internal;
};

[[nodiscard]] std::vector<std::uint8_t> encodeTask(const TaskMsg& m);
[[nodiscard]] TaskMsg decodeTask(BinaryReader& r);

[[nodiscard]] std::vector<std::uint8_t> encodeResult(const ResultMsg& m);
[[nodiscard]] ResultMsg decodeResult(BinaryReader& r);

[[nodiscard]] std::vector<std::uint8_t> encodeTaskError(const TaskErrorMsg& m);
[[nodiscard]] TaskErrorMsg decodeTaskError(BinaryReader& r);

/// Total elements across a set of slices (ghost-traffic accounting).
[[nodiscard]] std::uint64_t sliceElements(const std::vector<FieldSlice>& s);

}  // namespace dpart::runtime::dist
