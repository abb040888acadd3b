// The LoggedSystemState observation codec against the encoder and
// decoder it replaced, kept here verbatim as the reference. Serialize
// must produce the same bytes for observations of every built-in
// workload; on seeded mutations of real rows both decoders must accept
// and reject the same inputs and decode the same fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "target/thor_rd_target.h"
#include "target/workloads.h"
#include "util/strings.h"

namespace goofi::target {
namespace {

// ---- Reference codec (the per-record string version) ------------------

std::string RefToHexString(const BitVector& v) {
  std::string out = std::to_string(v.size());
  out.push_back(':');
  static const char* kHex = "0123456789abcdef";
  const std::size_t nibbles = (v.size() + 3) / 4;
  for (std::size_t n = 0; n < nibbles; ++n) {
    const std::size_t bit = n * 4;
    const std::size_t width = std::min<std::size_t>(4, v.size() - bit);
    out.push_back(kHex[v.GetField(bit, width)]);
  }
  return out;
}

bool RefFromHexString(const std::string& text, BitVector* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  std::size_t bit_count = 0;
  try {
    bit_count = std::stoul(text.substr(0, colon));
  } catch (const std::exception&) {
    return false;
  }
  const std::string hex = text.substr(colon + 1);
  if (hex.size() != (bit_count + 3) / 4) return false;
  BitVector v(bit_count);
  for (std::size_t n = 0; n < hex.size(); ++n) {
    const char c = hex[n];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    const std::size_t bit = n * 4;
    const std::size_t width = std::min<std::size_t>(4, bit_count - bit);
    if (width < 4 && (nibble >> width) != 0) return false;
    v.SetField(bit, width, nibble);
  }
  *out = std::move(v);
  return true;
}

std::string RefSerialize(const Observation& o) {
  std::string out;
  out += StrFormat("stop=%d", static_cast<int>(o.stop_reason));
  out += StrFormat(";instr=%llu",
                   static_cast<unsigned long long>(o.instructions));
  out += StrFormat(";iter=%llu", static_cast<unsigned long long>(o.iterations));
  out += StrFormat(";recov=%llu",
                   static_cast<unsigned long long>(o.recovery_count));
  out += StrFormat(";inj=%d", o.fault_was_injected ? 1 : 0);
  if (o.link_words_retried != 0) {
    out += StrFormat(";linkretry=%llu",
                     static_cast<unsigned long long>(o.link_words_retried));
  }
  if (o.edm.has_value()) {
    out += StrFormat(";edm=%d,%llu,0x%08x,%s", static_cast<int>(o.edm->type),
                     static_cast<unsigned long long>(o.edm->time), o.edm->pc,
                     HexEncode(o.edm->detail).c_str());
  }
  for (const auto& [name, image] : o.chain_images) {
    out += ";chain:" + name + "=" + RefToHexString(image);
  }
  if (!o.output_region.empty()) {
    const std::string bytes(o.output_region.begin(), o.output_region.end());
    out += ";out=" + HexEncode(bytes);
  }
  auto join_words = [](const std::vector<std::uint32_t>& words) {
    std::string text;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (i != 0) text += '+';
      text += StrFormat("%u", words[i]);
    }
    return text;
  };
  if (!o.emitted.empty()) out += ";emit=" + join_words(o.emitted);
  if (!o.env_outputs.empty()) out += ";env=" + join_words(o.env_outputs);
  if (!o.detail_trace.empty()) {
    out += ";trace=";
    for (std::size_t i = 0; i < o.detail_trace.size(); ++i) {
      if (i != 0) out += '|';
      out += StrFormat(
          "%llu@", static_cast<unsigned long long>(o.detail_trace[i].first));
      out += RefToHexString(o.detail_trace[i].second);
    }
  }
  return out;
}

Status RefBad(const std::string& what) {
  return ParseError("bad observation record: " + what);
}

Result<std::vector<std::uint32_t>> RefParseWordList(const std::string& text) {
  std::vector<std::uint32_t> words;
  for (const std::string& piece : SplitString(text, '+')) {
    if (piece.empty()) continue;
    const auto value = ParseUint64(piece);
    if (!value || *value > 0xffffffffull) {
      return RefBad("word list entry '" + piece + "'");
    }
    words.push_back(static_cast<std::uint32_t>(*value));
  }
  return words;
}

Result<Observation> RefDeserialize(const std::string& text) {
  Observation observation;
  bool saw_stop = false;
  for (const std::string& record : SplitString(text, ';')) {
    if (record.empty()) continue;
    const std::size_t eq = record.find('=');
    if (eq == std::string::npos) return RefBad(record);
    const std::string key = record.substr(0, eq);
    const std::string value = record.substr(eq + 1);
    if (key == "stop") {
      const auto parsed = ParseUint64(value);
      if (!parsed || *parsed > 4) return RefBad("stop=" + value);
      observation.stop_reason = static_cast<sim::StopReason>(*parsed);
      saw_stop = true;
    } else if (key == "instr" || key == "iter" || key == "recov" ||
               key == "linkretry") {
      const auto parsed = ParseUint64(value);
      if (!parsed) return RefBad(key + "=" + value);
      if (key == "instr") observation.instructions = *parsed;
      if (key == "iter") observation.iterations = *parsed;
      if (key == "recov") observation.recovery_count = *parsed;
      if (key == "linkretry") observation.link_words_retried = *parsed;
    } else if (key == "inj") {
      observation.fault_was_injected = value == "1";
    } else if (key == "edm") {
      const std::vector<std::string> fields = SplitString(value, ',');
      if (fields.size() != 4) return RefBad("edm=" + value);
      const auto type = ParseUint64(fields[0]);
      const auto time = ParseUint64(fields[1]);
      const auto pc = ParseUint64(fields[2]);
      const auto detail = HexDecode(fields[3]);
      if (!type || *type >= sim::kEdmTypeCount || !time || !pc || !detail) {
        return RefBad("edm=" + value);
      }
      sim::EdmEvent event;
      event.type = static_cast<sim::EdmType>(*type);
      event.time = *time;
      event.pc = static_cast<std::uint32_t>(*pc);
      event.detail = *detail;
      observation.edm = std::move(event);
    } else if (StartsWith(key, "chain:")) {
      BitVector image;
      if (!RefFromHexString(value, &image)) return RefBad(key + "=" + value);
      observation.chain_images[key.substr(6)] = std::move(image);
    } else if (key == "out") {
      const auto bytes = HexDecode(value);
      if (!bytes) return RefBad("out=" + value);
      observation.output_region.assign(bytes->begin(), bytes->end());
    } else if (key == "emit") {
      ASSIGN_OR_RETURN(observation.emitted, RefParseWordList(value));
    } else if (key == "env") {
      ASSIGN_OR_RETURN(observation.env_outputs, RefParseWordList(value));
    } else if (key == "trace") {
      for (const std::string& entry : SplitString(value, '|')) {
        if (entry.empty()) continue;
        const std::size_t at = entry.find('@');
        if (at == std::string::npos) return RefBad("trace entry");
        const auto time = ParseUint64(entry.substr(0, at));
        BitVector image;
        if (!time || !RefFromHexString(entry.substr(at + 1), &image)) {
          return RefBad("trace entry '" + entry + "'");
        }
        observation.detail_trace.emplace_back(*time, std::move(image));
      }
    }
  }
  if (!saw_stop) return RefBad("missing stop reason");
  return observation;
}

// ---- Helpers ------------------------------------------------------------

void ExpectSameObservation(const Observation& a, const Observation& b,
                           const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.recovery_count, b.recovery_count);
  EXPECT_EQ(a.fault_was_injected, b.fault_was_injected);
  EXPECT_EQ(a.link_words_retried, b.link_words_retried);
  ASSERT_EQ(a.edm.has_value(), b.edm.has_value());
  if (a.edm.has_value()) {
    EXPECT_EQ(a.edm->type, b.edm->type);
    EXPECT_EQ(a.edm->time, b.edm->time);
    EXPECT_EQ(a.edm->pc, b.edm->pc);
    EXPECT_EQ(a.edm->detail, b.edm->detail);
  }
  EXPECT_EQ(a.chain_images, b.chain_images);
  EXPECT_EQ(a.output_region, b.output_region);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.env_outputs, b.env_outputs);
  EXPECT_EQ(a.detail_trace, b.detail_trace);
}

ExperimentSpec AtInstret(std::uint64_t count, FaultTarget fault) {
  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = count;
  spec.targets = {std::move(fault)};
  return spec;
}

// A reference run and SCIFI flips of bits 0 and 31 of the first writable
// internal-chain registers, on one loaded target.
void CollectRuns(ThorRdTarget& target, std::size_t max_locations,
                 std::vector<Observation>* out) {
  ASSERT_TRUE(target.MakeReferenceRun().ok());
  out->push_back(target.TakeObservation());
  std::size_t used = 0;
  for (const auto& location : target.ListLocations()) {
    if (used == max_locations) break;
    if (!location.writable || location.chain != "internal" ||
        location.width_bits != 32) {
      continue;
    }
    ++used;
    for (std::uint32_t bit : {0u, 31u}) {
      target.set_experiment(AtInstret(20, {location.name, bit}));
      ASSERT_TRUE(target.RunExperiment().ok()) << location.name;
      out->push_back(target.TakeObservation());
    }
  }
}

// Observations from real runs of every built-in workload, plus the
// shapes only some runs produce: a long engine_control env= list, a
// detail-mode trace=, link retries, and the empty observation.
const std::vector<Observation>& RealObservations() {
  static const std::vector<Observation> observations = [] {
    std::vector<Observation> out;
    for (const std::string& name : BuiltinWorkloadNames()) {
      auto workload = GetBuiltinWorkload(name);
      EXPECT_TRUE(workload.ok()) << name;
      if (name == "engine_control") workload->termination.max_iterations = 300;
      ThorRdTarget target;
      EXPECT_TRUE(target.SetWorkload(*workload).ok()) << name;
      CollectRuns(target, 12, &out);
    }
    {
      ThorRdTarget target;
      EXPECT_TRUE(target.SetWorkload(*GetBuiltinWorkload("fib")).ok());
      target.set_logging_mode(LoggingMode::kDetail);
      ExperimentSpec spec = AtInstret(3, {"cpu.regs.r2", 13});
      spec.termination.max_instructions = 6;
      target.set_experiment(spec);
      EXPECT_TRUE(target.RunExperiment().ok());
      out.push_back(target.TakeObservation());
    }
    {
      TestCardOptions lossy;
      lossy.link_fault_probability = 0.3;
      ThorRdTarget target(lossy);
      EXPECT_TRUE(target.SetWorkload(*GetBuiltinWorkload("fib")).ok());
      CollectRuns(target, 2, &out);
    }
    out.emplace_back();
    return out;
  }();
  return observations;
}

// ---- Serialize ------------------------------------------------------------

TEST(ObservationCodecTest, SerializeIsByteIdenticalOnRealObservations) {
  const std::vector<Observation>& observations = RealObservations();
  bool saw_env = false, saw_trace = false, saw_edm_detail = false,
       saw_linkretry = false, saw_empty = false;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const Observation& o = observations[i];
    ASSERT_EQ(o.Serialize(), RefSerialize(o)) << "observation " << i;
    saw_env |= o.env_outputs.size() >= 300;
    saw_trace |= !o.detail_trace.empty();
    saw_edm_detail |= o.edm.has_value() && !o.edm->detail.empty();
    saw_linkretry |= o.link_words_retried != 0;
    saw_empty |= o.chain_images.empty() && o.emitted.empty();
  }
  EXPECT_TRUE(saw_env);
  EXPECT_TRUE(saw_trace);
  EXPECT_TRUE(saw_edm_detail);
  EXPECT_TRUE(saw_linkretry);
  EXPECT_TRUE(saw_empty);
}

TEST(ObservationCodecTest, SerializeIsByteIdenticalOnExtremeValues) {
  Observation o;
  o.stop_reason = sim::StopReason::kEdm;
  o.instructions = ~0ull;
  o.iterations = 0;
  o.recovery_count = 1ull << 63;
  o.fault_was_injected = true;
  o.link_words_retried = 1;
  sim::EdmEvent edm;
  edm.type = sim::EdmType::kAssertion;
  edm.time = ~0ull;
  edm.pc = 0xFFFFFFFFu;
  edm.detail = std::string("\0;=+|@\xff", 7);
  o.edm = edm;
  o.chain_images[""] = BitVector(0);
  o.chain_images["odd"] = BitVector(65);
  o.chain_images["odd"].FillOne();
  o.output_region = {0x00, 0xFF};
  o.emitted = {0, 0xFFFFFFFFu};
  o.env_outputs = {4294967295u, 1, 10, 100};
  o.detail_trace.emplace_back(0, BitVector(3));
  o.detail_trace.emplace_back(~0ull, BitVector(128));
  EXPECT_EQ(o.Serialize(), RefSerialize(o));
  o.edm->pc = 0;
  EXPECT_EQ(o.Serialize(), RefSerialize(o));
}

// ---- Deserialize ----------------------------------------------------------

// Decodes `text` with both decoders; they must agree on accept/reject
// and, on accept, on every field. Returns whether the input was
// accepted.
bool ExpectSameDecode(const std::string& text) {
  const Result<Observation> reference = RefDeserialize(text);
  const Result<Observation> decoded = Observation::Deserialize(text);
  EXPECT_EQ(decoded.ok(), reference.ok()) << "input: " << text.substr(0, 300);
  if (decoded.ok() && reference.ok()) {
    ExpectSameObservation(decoded.value(), reference.value(),
                          "input: " + text.substr(0, 300));
  }
  return reference.ok();
}

TEST(ObservationCodecTest, RoundTripsRealRows) {
  for (const Observation& o : RealObservations()) {
    const std::string row = o.Serialize();
    EXPECT_TRUE(ExpectSameDecode(row));
    const auto decoded = Observation::Deserialize(row);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().Serialize(), row);
  }
}

TEST(ObservationCodecTest, HandWrittenEdgesMatchTheReference) {
  const std::string base = "stop=1;instr=5;iter=2;recov=0;inj=1";
  struct Case {
    std::string suffix;
    bool accepted;
  };
  const std::vector<Case> cases = {
      {"", true},
      {";env=1+2+3", true},
      {";env=+1++2+", true},                 // empty pieces skipped
      {";env= 12+\t7 ", true},                // whitespace-padded words
      {";env=0x1F+0X10", true},               // hex words
      {";env=4294967295", true},
      {";env=4294967296", false},             // past 32 bits
      {";env=18446744073709551616", false},   // past 64 bits
      {";env=00000000000000000000000001", true},
      {";env=-1", false},
      {";env=1a", false},
      {";env=0x", false},
      {";emit=7;emit=8", true},               // last record wins
      {";chain:internal=8:5a", true},
      {";chain:internal=8:5A", false},        // uppercase hex
      {";chain:internal=8:5", false},         // length mismatch
      {";chain:internal=5:f1", true},
      {";chain:internal=5:ff", false},        // bits past the count
      {";chain:internal= 8:5a", true},        // stoul: leading space
      {";chain:internal=+8:5a", true},        // stoul: sign
      {";chain:internal=8 :5a", true},        // stoul: trailing junk
      {";chain:internal=8x:5a", true},
      {";chain:internal=x8:5a", false},
      {";chain:internal=:", false},
      {";chain:internal=0:", true},
      {";chain:internal=-0:", true},
      {";chain:internal=99999999999999999999999:", false},
      {";chain:internal=5a", false},          // no header
      {";chain:=4:1", true},
      {";edm=1,2,0x00000010,6869", true},
      {";edm=1,2,0x10,", true},
      {";edm=1,2,3", false},
      {";edm=1,2,3,4,5", false},
      {";edm=99,2,3,", false},
      {";edm=1,2,3,abc", false},
      {";out=00ff", true},
      {";out=0", false},
      {";trace=1@4:f|2@4:0", true},
      {";trace=||1@4:f||", true},
      {";trace=1", false},
      {";trace=x@4:f", false},
      {";trace=1@4:F", false},
      {";linkretry= 0x10", true},
      {";linkretry=", false},
      {";instr=0x", false},
      {";future=anything;=;x=y", true},       // unknown keys skipped
      {";novalue", false},
      {";;;", true},
      {";stop=5", false},
      {";stop= 4 ", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.suffix);
    EXPECT_EQ(ExpectSameDecode(base + c.suffix), c.accepted);
  }
  EXPECT_FALSE(ExpectSameDecode(""));
  EXPECT_FALSE(ExpectSameDecode("instr=5"));
}

TEST(ObservationCodecTest, WrappedBitCountIsRejected) {
  // stoul reads "-1" as SIZE_MAX, which wraps the nibble count to 0.
  // The per-record decoder accepted such a header with an empty payload
  // as a vector of SIZE_MAX bits and no storage; the decoder rejects it.
  for (const char* header : {"-1:", "-2:", "-3:"}) {
    SCOPED_TRACE(header);
    BitVector image;
    EXPECT_FALSE(BitVector::FromHexString(header, &image));
    EXPECT_FALSE(
        Observation::Deserialize(std::string("stop=0;chain:x=") + header)
            .ok());
  }
}

// Applies 1-3 random edits aimed at the grammar's corners: separators,
// whitespace and 0x words, overflowing numbers, broken chain headers and
// lengths, uppercase hex, duplicated records and truncation.
std::string Mutate(const std::string& row, std::mt19937_64& rng) {
  static const std::vector<std::string> kTokens = {
      ";", "=", "+", ",", "@", "|", ":", "-", " ", "\t", "0x", "0X1f",
      "4294967296", "18446744073709551616", "99999999999999999999999", "A",
      "F", " 7", "7 ", "-1:", ";env=", "+0x10+", ";stop=9", ";edm=1,2,3",
      "chain:x=", "\n", std::string(1, '\0'), "g", "00"};
  std::string text = row;
  auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = pick(text.size() + 1);
    switch (rng() % 8) {
      case 0:  // replace one byte
        if (!text.empty()) {
          const std::string& token = kTokens[pick(kTokens.size())];
          text[std::min(pos, text.size() - 1)] = token[0];
        }
        break;
      case 1:  // delete a short range
        text.erase(std::min(pos, text.size()), 1 + pick(8));
        break;
      case 2:  // insert a token
        text.insert(pos, kTokens[pick(kTokens.size())]);
        break;
      case 3: {  // duplicate a record at the end
        const std::size_t start = text.rfind(';', pos == 0 ? 0 : pos - 1);
        const std::size_t from = start == std::string::npos ? 0 : start;
        const std::size_t end = text.find(';', from + 1);
        text += text.substr(from, end == std::string::npos
                                      ? std::string::npos
                                      : end - from);
        break;
      }
      case 4:  // truncate
        text.resize(pos);
        break;
      case 5:  // uppercase a run of hex digits
        for (std::size_t i = pos; i < std::min(text.size(), pos + 6); ++i) {
          if (text[i] >= 'a' && text[i] <= 'f') text[i] -= 'a' - 'A';
        }
        break;
      case 6: {  // bend a chain or trace image header's bit count
        const std::size_t colon = text.find(':', text.find('=', pos));
        if (colon != std::string::npos && colon > 0) {
          static const char* kCounts[] = {"0", "1", "3", "4", "65", "-1",
                                          " 8", "+5", "8x", ""};
          std::size_t digits = colon;
          while (digits > 0 && text[digits - 1] >= '0' &&
                 text[digits - 1] <= '9') {
            --digits;
          }
          text.replace(digits, colon - digits, kCounts[pick(10)]);
        }
        break;
      }
      default: {  // nudge a digit up or down
        for (std::size_t i = pos; i < text.size(); ++i) {
          if (text[i] >= '0' && text[i] <= '9') {
            text[i] = static_cast<char>('0' + (text[i] - '0' + 1 + pick(9)) % 10);
            break;
          }
        }
        break;
      }
    }
  }
  return text;
}

TEST(ObservationCodecTest, MutatedRowsDecodeLikeTheReference) {
  std::vector<std::string> corpus;
  for (const Observation& o : RealObservations()) {
    std::string row = o.Serialize();
    if (row.size() <= 12 * 1024) corpus.push_back(std::move(row));
  }
  ASSERT_GE(corpus.size(), 20u);
  std::mt19937_64 rng(0x0B5E7A7E);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t wrapped = 0;
  constexpr std::size_t kMutations = 12000;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string text = Mutate(corpus[i % corpus.size()], rng);
    const Result<Observation> reference = RefDeserialize(text);
    const Result<Observation> decoded = Observation::Deserialize(text);
    if (reference.ok() && !decoded.ok()) {
      // The one deliberate difference (WrappedBitCountIsRejected).
      bool has_wrapped_image = false;
      for (const auto& [name, image] : reference.value().chain_images) {
        has_wrapped_image |= image.size() > SIZE_MAX - 3;
      }
      for (const auto& [time, image] : reference.value().detail_trace) {
        has_wrapped_image |= image.size() > SIZE_MAX - 3;
      }
      if (has_wrapped_image) {
        ++wrapped;
        continue;
      }
    }
    ASSERT_EQ(decoded.ok(), reference.ok())
        << "mutation " << i << ": " << text.substr(0, 400);
    if (reference.ok()) {
      ExpectSameObservation(decoded.value(), reference.value(),
                            "mutation " + std::to_string(i));
      if (::testing::Test::HasFailure()) return;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The edits must exercise both verdicts, not only one.
  EXPECT_GT(accepted, kMutations / 10);
  EXPECT_GT(rejected, kMutations / 10);
  EXPECT_LT(wrapped, kMutations / 100);
}

}  // namespace
}  // namespace goofi::target
