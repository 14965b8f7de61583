#include "support/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace dpart {

namespace {

/// Process-wide small thread index used as the Chrome "tid". Stable for the
/// lifetime of the thread, shared across tracers (a trace viewer shows one
/// timeline row per OS thread regardless of which tracer recorded it).
std::uint32_t threadIndex() {
  static std::atomic<std::uint32_t> next{1};
  static thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

/// Per-thread stack of open spans: (tracer, span id). Spans are strictly
/// nested RAII scopes, so the top entry is the innermost open span.
thread_local std::vector<std::pair<const Tracer*, std::uint64_t>> tlsSpans;

}  // namespace

std::uint64_t currentTraceSpanId() noexcept {
  return tlsSpans.empty() ? 0 : tlsSpans.back().second;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Tracer::Tracer(std::size_t capacity) {
  DPART_CHECK(capacity > 0, "tracer capacity must be positive");
  buf_.resize(capacity);
}

void Tracer::enable() {
  if (!epochSet_.exchange(true)) epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::uint64_t Tracer::nowMicros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceEvent* Tracer::claim(std::uint64_t* seqOut) {
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  *seqOut = slot;
  return &buf_[static_cast<std::size_t>(slot)];
}

std::uint64_t Tracer::beginSpan(const char* cat, std::string name,
                                std::string args) {
  if (!enabled()) return 0;
  std::uint64_t seq = 0;
  TraceEvent* e = claim(&seq);
  if (e == nullptr) return 0;
  e->phase = TraceEvent::Phase::Begin;
  e->tid = threadIndex();
  e->seq = seq;
  e->tsMicros = nowMicros();
  e->cat = cat;
  e->name = std::move(name);
  e->args = std::move(args);
  const std::uint64_t id = seq + 1;
  tlsSpans.emplace_back(this, id);
  return id;
}

void Tracer::endSpan(std::uint64_t spanId, std::string args) {
  if (spanId == 0) return;
  if (!tlsSpans.empty() && tlsSpans.back().first == this &&
      tlsSpans.back().second == spanId) {
    tlsSpans.pop_back();
  }
  std::uint64_t seq = 0;
  TraceEvent* e = claim(&seq);
  if (e == nullptr) return;  // exporter synthesizes the missing End
  e->phase = TraceEvent::Phase::End;
  e->tid = threadIndex();
  e->seq = seq;
  e->tsMicros = nowMicros();
  e->cat = "";
  e->name.clear();  // backfilled from the matching Begin at export
  e->args = std::move(args);
}

void Tracer::instant(const char* cat, std::string name, std::string args) {
  if (!enabled()) return;
  std::uint64_t seq = 0;
  TraceEvent* e = claim(&seq);
  if (e == nullptr) return;
  e->phase = TraceEvent::Phase::Instant;
  e->tid = threadIndex();
  e->seq = seq;
  e->tsMicros = nowMicros();
  e->cat = cat;
  e->name = std::move(name);
  e->args = std::move(args);
}

std::size_t Tracer::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(next_.load(std::memory_order_relaxed),
                              buf_.size()));
}

std::vector<TraceEvent> Tracer::events() const {
  const std::size_t n = size();
  std::vector<TraceEvent> out(buf_.begin(),
                              buf_.begin() + static_cast<std::ptrdiff_t>(n));
  // Backfill End names from their Begin and synthesize Ends for spans whose
  // End was dropped (ring overflow) or is still open, so the exported
  // stream is balanced per thread no matter when it was captured.
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // tid -> B indices
  std::uint64_t maxTs = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    TraceEvent& e = out[i];
    maxTs = std::max(maxTs, e.tsMicros);
    if (e.phase == TraceEvent::Phase::Begin) {
      open[e.tid].push_back(i);
    } else if (e.phase == TraceEvent::Phase::End) {
      std::vector<std::size_t>& stack = open[e.tid];
      if (stack.empty()) {
        // An End whose Begin predates the buffer cannot exist by
        // construction (endSpan is skipped when beginSpan returned 0);
        // downgrade defensively rather than exporting an unbalanced pair.
        e.phase = TraceEvent::Phase::Instant;
        e.name = "orphan-end";
        continue;
      }
      const TraceEvent& b = out[stack.back()];
      e.name = b.name;
      e.cat = b.cat;
      stack.pop_back();
    }
  }
  std::uint64_t seq = out.empty() ? 0 : out.back().seq;
  for (auto& [tid, stack] : open) {
    // Close innermost-first so the synthesized stream stays well nested.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      TraceEvent e;
      e.phase = TraceEvent::Phase::End;
      e.tid = tid;
      e.seq = ++seq;
      e.tsMicros = maxTs;
      e.cat = out[*it].cat;
      e.name = out[*it].name;
      e.args = "\"incomplete\":true";
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::string Tracer::toChromeJson() const {
  const std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const TraceEvent& e) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"" << static_cast<char>(e.phase) << "\",\"ts\":"
       << e.tsMicros << ",\"pid\":1,\"tid\":" << e.tid;
    if (e.name[0] != '\0' || e.phase != TraceEvent::Phase::End) {
      os << ",\"name\":\"" << jsonEscape(e.name) << '"';
    }
    os << ",\"cat\":\"" << e.cat << '"';  // fixed schema: always present
    if (e.phase == TraceEvent::Phase::Instant) os << ",\"s\":\"t\"";
    if (e.phase == TraceEvent::Phase::Begin) {
      os << ",\"args\":{\"span_id\":" << e.seq + 1;
      if (!e.args.empty()) os << ',' << e.args;
      os << '}';
    } else if (!e.args.empty()) {
      os << ",\"args\":{" << e.args << '}';
    }
    os << '}';
  };
  for (const TraceEvent& e : evs) emit(e);
  os << "],\"otherData\":{\"producer\":\"dpart\",\"droppedEvents\":"
     << droppedEvents() << "}}";
  return os.str();
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DPART_CHECK(out.good(), "cannot open trace file '" + path + "'");
  out << toChromeJson();
  out.flush();
  DPART_CHECK(out.good(), "failed writing trace file '" + path + "'");
}

std::map<std::string, double> Tracer::spanTotalsMs() const {
  std::map<std::string, double> totals;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> open;
  const std::vector<TraceEvent> evs = events();  // balanced by construction
  for (const TraceEvent& e : evs) {
    if (e.phase == TraceEvent::Phase::Begin) {
      open[e.tid].push_back(&e);
    } else if (e.phase == TraceEvent::Phase::End) {
      std::vector<const TraceEvent*>& stack = open[e.tid];
      if (stack.empty()) continue;
      const TraceEvent* b = stack.back();
      stack.pop_back();
      totals[b->name] +=
          static_cast<double>(e.tsMicros - b->tsMicros) * 1e-3;
    }
  }
  return totals;
}

}  // namespace dpart
