// 64-bit FNV-1a digests of run artifacts, so a test can pin the exact
// bytes of a reference run without committing the artifacts themselves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sorn::digest {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnvOffset) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digest of the lines as a JSONL file: each line followed by '\n'.
inline std::uint64_t fnv1a_lines(const std::vector<std::string>& lines) {
  std::uint64_t h = kFnvOffset;
  for (const std::string& line : lines) h = fnv1a("\n", fnv1a(line, h));
  return h;
}

}  // namespace sorn::digest
