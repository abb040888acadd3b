#include "util/bitvector.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace goofi {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t WordCount(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

void BitVector::Resize(std::size_t bit_count) {
  bit_count_ = bit_count;
  words_.resize(WordCount(bit_count), 0);
  MaskTail();
}

void BitVector::Clear() {
  bit_count_ = 0;
  words_.clear();
}

void BitVector::MaskTail() {
  if (bit_count_ % kWordBits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (bit_count_ % kWordBits)) - 1;
  }
}

bool BitVector::Get(std::size_t bit) const {
  assert(bit < bit_count_);
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
}

void BitVector::Set(std::size_t bit, bool value) {
  assert(bit < bit_count_);
  const std::uint64_t mask = std::uint64_t{1} << (bit % kWordBits);
  if (value) {
    words_[bit / kWordBits] |= mask;
  } else {
    words_[bit / kWordBits] &= ~mask;
  }
}

void BitVector::Flip(std::size_t bit) {
  assert(bit < bit_count_);
  words_[bit / kWordBits] ^= std::uint64_t{1} << (bit % kWordBits);
}

std::uint64_t BitVector::GetField(std::size_t bit, std::size_t width) const {
  assert(width >= 1 && width <= 64);
  assert(bit + width <= bit_count_);
  const std::size_t word = bit / kWordBits;
  const std::size_t shift = bit % kWordBits;
  std::uint64_t value = words_[word] >> shift;
  if (shift + width > kWordBits) {
    value |= words_[word + 1] << (kWordBits - shift);
  }
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

void BitVector::SetField(std::size_t bit, std::size_t width,
                         std::uint64_t value) {
  assert(width >= 1 && width <= 64);
  assert(bit + width <= bit_count_);
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  const std::size_t word = bit / kWordBits;
  const std::size_t shift = bit % kWordBits;
  const std::uint64_t low_mask =
      (width == 64 && shift == 0)
          ? ~std::uint64_t{0}
          : ((shift + width >= kWordBits)
                 ? ~((std::uint64_t{1} << shift) - 1)
                 : (((std::uint64_t{1} << width) - 1) << shift));
  words_[word] = (words_[word] & ~low_mask) | ((value << shift) & low_mask);
  if (shift + width > kWordBits) {
    const std::size_t high_bits = shift + width - kWordBits;
    const std::uint64_t high_mask = (std::uint64_t{1} << high_bits) - 1;
    words_[word + 1] =
        (words_[word + 1] & ~high_mask) |
        ((value >> (kWordBits - shift)) & high_mask);
  }
}

std::size_t BitVector::PopCount() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) count += std::popcount(w);
  return count;
}

std::size_t BitVector::HammingDistance(const BitVector& other) const {
  assert(bit_count_ == other.bit_count_);
  std::size_t count = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] ^ other.words_[i]);
  }
  return count;
}

void BitVector::FillZero() {
  for (auto& w : words_) w = 0;
}

void BitVector::FillOne() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  MaskTail();
}

BitVector BitVector::ShiftRightInsert(const BitVector& in) {
  const std::size_t k = in.bit_count_;
  assert(k <= bit_count_);
  const std::size_t kept = bit_count_ - k;
  BitVector out(k);
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    const std::size_t bit = i * kWordBits;
    out.words_[i] = GetField(bit, std::min(kWordBits, k - bit));
  }
  // Ascending word order: word i is read (bits k+64i...) before any
  // later write can reach it, so the move is safe in place. Writing
  // whole words zeroes the top of the last kept word; the insert below
  // covers every bit above `kept`.
  for (std::size_t bit = 0; bit < kept; bit += kWordBits) {
    words_[bit / kWordBits] =
        GetField(k + bit, std::min(kWordBits, kept - bit));
  }
  for (std::size_t i = 0; i < in.words_.size(); ++i) {
    const std::size_t bit = i * kWordBits;
    SetField(kept + bit, std::min(kWordBits, k - bit), in.words_[i]);
  }
  return out;
}

std::string BitVector::ToBitString() const {
  std::string out;
  out.reserve(bit_count_);
  for (std::size_t i = 0; i < bit_count_; ++i) out.push_back(Get(i) ? '1' : '0');
  return out;
}

BitVector BitVector::FromBitString(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    v.Set(i, bits[i] == '1');
  }
  return v;
}

std::string BitVector::ToHexString() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = std::to_string(bit_count_);
  out.push_back(':');
  const std::size_t nibbles = (bit_count_ + 3) / 4;
  const std::size_t base = out.size();
  out.resize(base + nibbles);
  // Whole words, low nibble first; MaskTail keeps the bits past
  // bit_count_ zero, so the last partial nibble needs no masking.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    const std::size_t end = std::min(nibbles, (w + 1) * (kWordBits / 4));
    for (std::size_t n = w * (kWordBits / 4); n < end; ++n, word >>= 4) {
      out[base + n] = kHex[word & 0xF];
    }
  }
  return out;
}

namespace {

// The "<bitcount>:" prefix. Plain digits take from_chars; anything else
// keeps std::stoul's reading, so the accepted grammar stays what it was.
std::optional<std::size_t> ParseBitCount(std::string_view text) {
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && end == text.data() + text.size()) return value;
  try {
    return std::stoul(std::string(text));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

bool BitVector::FromHexString(std::string_view text, BitVector* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return false;
  const std::optional<std::size_t> bit_count =
      ParseBitCount(text.substr(0, colon));
  // A count within 3 of SIZE_MAX (stoul reads "-1" as SIZE_MAX) would
  // wrap the nibble count to 0 and yield a vector with no storage.
  if (!bit_count || *bit_count > SIZE_MAX - 3) return false;
  const std::string_view hex = text.substr(colon + 1);
  if (hex.size() != (*bit_count + 3) / 4) return false;
  BitVector v(*bit_count);
  std::uint64_t nibble = 0;
  for (std::size_t n = 0; n < hex.size(); ++n) {
    const char c = hex[n];
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    v.words_[n / (kWordBits / 4)] |= nibble << (4 * (n % (kWordBits / 4)));
  }
  // The last nibble may cover bits past the count; they must be clear.
  const std::size_t tail_bits = *bit_count % 4;
  if (tail_bits != 0 && (nibble >> tail_bits) != 0) return false;
  *out = std::move(v);
  return true;
}

}  // namespace goofi
