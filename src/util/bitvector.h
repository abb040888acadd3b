// Arbitrary-width bit vector used as the bit-accurate image of a scan
// chain (DESIGN.md: src/sim/scan_chain). Bit 0 is the first bit shifted
// out of the chain. Unlike std::vector<bool> this exposes word-sized
// field extraction/insertion, which is how named state elements (a 32-bit
// register at chain position p) are read and written.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace goofi {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bit_count) { Resize(bit_count); }

  std::size_t size() const { return bit_count_; }
  bool empty() const { return bit_count_ == 0; }

  void Resize(std::size_t bit_count);
  void Clear();  // size -> 0

  bool Get(std::size_t bit) const;
  void Set(std::size_t bit, bool value);
  void Flip(std::size_t bit);

  // Extract/insert a little-endian field of up to 64 bits starting at
  // `bit`. Fields may straddle word boundaries.
  std::uint64_t GetField(std::size_t bit, std::size_t width) const;
  void SetField(std::size_t bit, std::size_t width, std::uint64_t value);

  // Number of set bits, and number of differing bits vs `other`
  // (vectors must be the same size).
  std::size_t PopCount() const;
  std::size_t HammingDistance(const BitVector& other) const;

  void FillZero();
  void FillOne();

  // Funnel shift: with k = in.size() <= size(), shift the whole vector
  // right by k (bit k -> bit 0, ...), lay `in` into the k bits freed at
  // the top (in bit 0 -> bit size()-k), and return the k bits shifted
  // out of the bottom (old bit 0 first). This is the TAP controller's
  // shift register: k TCKs of Shift-DR in one O(size/64) pass, whatever
  // k is.
  BitVector ShiftRightInsert(const BitVector& in);

  // '0'/'1' string, bit 0 first; and the inverse parse ("0110...").
  std::string ToBitString() const;
  static BitVector FromBitString(const std::string& bits);

  // Compact hex serialization (lowercase, 4 bits per char, bit 0 in the
  // low nibble of the first char), prefixed with "<bitcount>:". The
  // parse takes uppercase digits as malformed, and reads the bit count
  // as std::stoul does (leading whitespace, a sign, trailing junk).
  std::string ToHexString() const;
  static bool FromHexString(std::string_view text, BitVector* out);

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.bit_count_ == b.bit_count_ && a.words_ == b.words_;
  }

 private:
  void MaskTail();  // zero the unused bits of the last word

  std::size_t bit_count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace goofi
