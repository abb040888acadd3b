#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace goofi {

namespace {

// Slicing-by-8 (Intel's "Slicing-by-8" CRC, Kounavis & Berry): table
// k maps a byte to its CRC contribution when k more zero bytes follow
// it, so eight input bytes fold into the register with eight lookups
// and one XOR chain instead of eight dependent shift/lookup steps.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrcTables;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  // The eight-byte step reads its input as two little-endian words;
  // other hosts take the bytewise loop for the whole input.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);  // memcpy: any alignment
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace goofi
