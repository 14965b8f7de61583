#pragma once

#include <cstdint>
#include <string_view>

namespace dpart {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;

/// 64-bit FNV-1a over the bytes of `data`, starting from `h`; pass a
/// previous result as `h` to hash a concatenation. Plan hashes, fault draws
/// and cache keys all use this one function, so their values stay stable.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view data,
                                              std::uint64_t h = kFnv1aOffset) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace dpart
