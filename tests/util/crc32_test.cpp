// CRC-32/IEEE: known answers, and agreement with the plain bytewise
// table-driven form at every length and alignment the slicing-by-8
// loop splits differently (head, eight-byte body, tail).
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>

namespace goofi {
namespace {

// One table lookup per byte: the textbook reflected CRC-32.
std::uint32_t BytewiseCrc32(std::string_view bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string SeededBytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng() & 0xFFu);
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  // Offsets 0..7 put the eight-byte loads at every alignment; lengths
  // 0..130 cover empty, tail-only and multi-block inputs.
  const std::string buffer = SeededBytes(8 + 130, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 130; ++length) {
      const std::string_view slice(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(slice), BytewiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnAMegabyte) {
  const std::string buffer = SeededBytes(1 << 20, 20261019);
  EXPECT_EQ(Crc32(buffer), BytewiseCrc32(buffer));
}

TEST(Crc32Test, EveryByteMatters) {
  std::string bytes = SeededBytes(4096, 3);
  const std::uint32_t clean = Crc32(bytes);
  for (std::size_t i = 0; i < bytes.size(); i += 97) {
    bytes[i] ^= 0x01;
    EXPECT_NE(Crc32(bytes), clean) << "flip at " << i;
    bytes[i] ^= 0x01;
  }
}

}  // namespace
}  // namespace goofi
