// Fault-injection helpers for durability tests: deterministically
// enumerate every way a file can be torn (truncation at each byte
// boundary) or corrupted (each byte flipped), so a test can assert the
// reader's recovery contract — "a strict prefix or a clean rejection" —
// over the *entire* fault space instead of a sampled one. The flip is
// XOR 0x5a (alternating bits): it never maps a byte to itself, so every
// position is genuinely disturbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

namespace bat::testutil {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fault_util: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("fault_util: cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("fault_util: short write to " + path);
}

/// Calls check(truncated_bytes, length) for every proper prefix of
/// `bytes` — length 0 (empty file) through size-1. The callback decides
/// what "recovered correctly" means for its format.
template <typename Check>
void for_each_truncation(const std::string& bytes, Check&& check) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    check(bytes.substr(0, len), len);
  }
}

/// Calls check(corrupted_bytes, position) for every single-byte flip
/// (XOR 0x5a) of `bytes`. Exactly one byte differs per invocation.
template <typename Check>
void for_each_byte_flip(const std::string& bytes, Check&& check) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(static_cast<std::uint8_t>(bad[pos]) ^ 0x5a);
    check(bad, pos);
  }
}

}  // namespace bat::testutil
