// Validates a Chrome trace_event JSON produced by dpart::Tracer — the CI
// trace-smoke gate. Checks that the document parses, that every event
// carries the required Chrome fields, that Begin/End events balance per
// thread, that timestamps never run backwards within a thread, and that
// every span name passed as an extra argument appears at least once.
//
// Usage: trace_check <trace.json> [required-span-name...]
// Exit 0 on a well-formed trace, 1 with a diagnostic otherwise.

#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/json.hpp"

namespace {

int fail(const std::string& what) {
  std::cerr << "trace_check: " << what << '\n';
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_check <trace.json> [required-span-name...]\n";
    return 2;
  }

  std::ifstream in(argv[1], std::ios::binary);
  if (!in.good()) return fail(std::string("cannot open ") + argv[1]);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  dpart::json::Value doc;
  try {
    doc = dpart::json::parse(text);
  } catch (const dpart::Error& e) {
    return fail(e.what());
  }

  if (!doc.isObject() || !doc.has("traceEvents")) {
    return fail("top-level object with a traceEvents array expected");
  }
  const dpart::json::Value& events = doc.at("traceEvents");
  if (!events.isArray()) return fail("traceEvents is not an array");
  if (events.items.empty()) return fail("traceEvents is empty");

  std::map<double, std::vector<std::string>> openStacks;  // tid -> span names
  std::map<double, double> lastTs;                        // tid -> microseconds
  std::set<std::string> seenNames;
  std::size_t index = 0;
  for (const dpart::json::Value& e : events.items) {
    const std::string at = " (event " + std::to_string(index++) + ")";
    if (!e.isObject()) return fail("event is not an object" + at);
    for (const char* key : {"ph", "ts", "pid", "tid", "cat"}) {
      if (!e.has(key)) {
        return fail("event missing required key '" + std::string(key) + "'" +
                    at);
      }
    }
    if (!e.at("ph").isString() || e.at("ph").str.size() != 1) {
      return fail("ph is not a single-character string" + at);
    }
    const char ph = e.at("ph").str[0];
    if (ph != 'B' && ph != 'E' && ph != 'i') {
      return fail(std::string("unexpected phase '") + ph + "'" + at);
    }
    if (!e.at("ts").isNumber()) return fail("ts is not a number" + at);
    const double tid = e.at("tid").number;
    const double ts = e.at("ts").number;
    if (lastTs.contains(tid) && ts < lastTs[tid]) {
      return fail("timestamps run backwards on tid " +
                  std::to_string(static_cast<long long>(tid)) + at);
    }
    lastTs[tid] = ts;

    if (ph != 'E') {
      if (!e.has("name") || !e.at("name").isString()) {
        return fail("non-End event missing its name" + at);
      }
      seenNames.insert(e.at("name").str);
    }
    if (ph == 'B') {
      openStacks[tid].push_back(e.has("name") ? e.at("name").str : "");
    } else if (ph == 'E') {
      if (openStacks[tid].empty()) {
        return fail("End with no open span on tid " +
                    std::to_string(static_cast<long long>(tid)) + at);
      }
      openStacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : openStacks) {
    if (!stack.empty()) {
      return fail("span '" + stack.back() + "' never closed on tid " +
                  std::to_string(static_cast<long long>(tid)));
    }
  }

  for (int i = 2; i < argc; ++i) {
    if (!seenNames.contains(argv[i])) {
      return fail("required span '" + std::string(argv[i]) +
                  "' not found in the trace");
    }
  }

  std::cout << "trace_check: OK — " << events.items.size() << " events, "
            << openStacks.size() << " thread(s), " << seenNames.size()
            << " distinct names\n";
  return 0;
}
