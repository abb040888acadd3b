#include "target/target_types.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace goofi::target {

const char* TechniqueName(Technique technique) {
  switch (technique) {
    case Technique::kScifi: return "scifi";
    case Technique::kSwifiPreRuntime: return "swifi_pre_runtime";
    case Technique::kSwifiRuntime: return "swifi_runtime";
  }
  return "?";
}

std::optional<Technique> TechniqueFromName(const std::string& name) {
  if (name == "scifi") return Technique::kScifi;
  if (name == "swifi_pre_runtime") return Technique::kSwifiPreRuntime;
  if (name == "swifi_runtime") return Technique::kSwifiRuntime;
  return std::nullopt;
}

const char* FaultModelKindName(FaultModel::Kind kind) {
  switch (kind) {
    case FaultModel::Kind::kTransientBitFlip: return "transient";
    case FaultModel::Kind::kIntermittentBitFlip: return "intermittent";
    case FaultModel::Kind::kPermanentStuckAt: return "permanent";
  }
  return "?";
}

std::optional<FaultModel::Kind> FaultModelKindFromName(
    const std::string& name) {
  if (name == "transient") return FaultModel::Kind::kTransientBitFlip;
  if (name == "intermittent") return FaultModel::Kind::kIntermittentBitFlip;
  if (name == "permanent") return FaultModel::Kind::kPermanentStuckAt;
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Observation serialization. ';'-separated key=value records; binary
// payloads (EDM detail text, output bytes) are hex-encoded so the text
// stays free of the separators and of the TSV metacharacters the
// database layer escapes.
// ---------------------------------------------------------------------

namespace {

// Decimal, as printf's %d / %llu / %u would print it.
template <typename Int>
void AppendDecimal(std::string& out, Int value) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, end);
}

// The word lists are most of a long row, so digits go straight into
// the string's buffer rather than through one append call per word.
void AppendWords(std::string& out, const std::vector<std::uint32_t>& words) {
  const std::size_t base = out.size();
  out.resize(base + 11 * words.size());  // 10 digits + '+' per word
  char* cursor = out.data() + base;
  char* const limit = out.data() + out.size();
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) *cursor++ = '+';
    cursor = std::to_chars(cursor, limit, words[i]).ptr;
  }
  out.resize(static_cast<std::size_t>(cursor - out.data()));
}

// Upper bound on the serialized length, so Serialize appends into one
// allocation: 20 digits per 64-bit number, 10 per word plus its '+'.
std::size_t SerializedSizeBound(const Observation& o) {
  std::size_t size = 160;  // keys, separators and the scalar fields
  if (o.edm.has_value()) size += 64 + 2 * o.edm->detail.size();
  for (const auto& [name, image] : o.chain_images) {
    size += 32 + name.size() + (image.size() + 3) / 4;
  }
  size += 8 + 2 * o.output_region.size();
  size += 16 + 11 * (o.emitted.size() + o.env_outputs.size());
  for (const auto& entry : o.detail_trace) {
    size += 48 + (entry.second.size() + 3) / 4;
  }
  return size;
}

}  // namespace

std::string Observation::Serialize() const {
  std::string out;
  out.reserve(SerializedSizeBound(*this));
  out += "stop=";
  AppendDecimal(out, static_cast<int>(stop_reason));
  out += ";instr=";
  AppendDecimal(out, instructions);
  out += ";iter=";
  AppendDecimal(out, iterations);
  out += ";recov=";
  AppendDecimal(out, recovery_count);
  out += fault_was_injected ? ";inj=1" : ";inj=0";
  if (link_words_retried != 0) {
    out += ";linkretry=";
    AppendDecimal(out, link_words_retried);
  }
  if (edm.has_value()) {
    static constexpr char kHex[] = "0123456789abcdef";
    out += ";edm=";
    AppendDecimal(out, static_cast<int>(edm->type));
    out += ',';
    AppendDecimal(out, edm->time);
    out += ",0x";
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kHex[(edm->pc >> shift) & 0xFu];
    }
    out += ',';
    out += HexEncode(edm->detail);
  }
  for (const auto& [name, image] : chain_images) {
    out += ";chain:";
    out += name;
    out += '=';
    out += image.ToHexString();
  }
  if (!output_region.empty()) {
    out += ";out=";
    out += HexEncode(
        std::string_view(reinterpret_cast<const char*>(output_region.data()),
                         output_region.size()));
  }
  if (!emitted.empty()) {
    out += ";emit=";
    AppendWords(out, emitted);
  }
  if (!env_outputs.empty()) {
    out += ";env=";
    AppendWords(out, env_outputs);
  }
  if (!detail_trace.empty()) {
    out += ";trace=";
    for (std::size_t i = 0; i < detail_trace.size(); ++i) {
      if (i != 0) out += '|';
      AppendDecimal(out, detail_trace[i].first);
      out += '@';
      out += detail_trace[i].second.ToHexString();
    }
  }
  // The row is stored with the capacity it leaves here (Value::Text_
  // moves it), and the bound budgets 10 digits per word: hand back what
  // short words left unused, or a long row would hold ~3x its bytes.
  if (out.capacity() - out.size() > out.size() / 4) out.shrink_to_fit();
  return out;
}

namespace {

Status BadObservation(std::string_view what) {
  return ParseError("bad observation record: " + std::string(what));
}

// Walks the `delimiter`-separated pieces of a view as SplitString
// splits it ("a,,b" has an empty middle piece, "" is one empty piece),
// without copying any of them.
class PieceReader {
 public:
  PieceReader(std::string_view text, char delimiter)
      : rest_(text), delimiter_(delimiter) {}

  bool Next(std::string_view* piece) {
    if (done_) return false;
    const std::size_t pos = rest_.find(delimiter_);
    *piece = rest_.substr(0, pos);
    done_ = pos == std::string_view::npos;
    if (!done_) rest_.remove_prefix(pos + 1);
    return true;
  }

 private:
  std::string_view rest_;
  char delimiter_;
  bool done_ = false;
};

Status ParseWordList(std::string_view text, std::vector<std::uint32_t>* words) {
  words->clear();
  words->reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '+')) + 1);
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    if (*p == '+') {  // empty piece
      ++p;
      continue;
    }
    std::uint32_t word = 0;
    auto [next, ec] = std::from_chars(p, end, word);
    if (ec != std::errc() || (next != end && *next != '+')) {
      // Not plain digits within 32 bits. ParseUint64 also reads
      // whitespace-padded and 0x-prefixed words, as it always has.
      next = std::find(p, end, '+');
      const std::string_view piece(p, static_cast<std::size_t>(next - p));
      const auto value = ParseUint64(piece);
      if (!value || *value > 0xffffffffull) {
        return BadObservation("word list entry '" + std::string(piece) +
                              "'");
      }
      word = static_cast<std::uint32_t>(*value);
    }
    words->push_back(word);
    p = next == end ? end : next + 1;
  }
  return Status::Ok();
}

Result<sim::EdmEvent> ParseEdm(std::string_view value) {
  std::string_view fields[4];
  std::size_t count = 0;
  PieceReader pieces(value, ',');
  for (std::string_view piece; pieces.Next(&piece);) {
    if (count == 4) return BadObservation("edm=" + std::string(value));
    fields[count++] = piece;
  }
  if (count != 4) return BadObservation("edm=" + std::string(value));
  const auto type = ParseUint64(fields[0]);
  const auto time = ParseUint64(fields[1]);
  const auto pc = ParseUint64(fields[2]);
  auto detail = HexDecode(fields[3]);
  if (!type || *type >= sim::kEdmTypeCount || !time || !pc || !detail) {
    return BadObservation("edm=" + std::string(value));
  }
  sim::EdmEvent event;
  event.type = static_cast<sim::EdmType>(*type);
  event.time = *time;
  event.pc = static_cast<std::uint32_t>(*pc);
  event.detail = std::move(*detail);
  return event;
}

}  // namespace

// One pass over the row: records, keys and values are views into
// `text`; only decoded fields are materialised.
Result<Observation> Observation::Deserialize(std::string_view text) {
  Observation observation;
  bool saw_stop = false;
  PieceReader records(text, ';');
  for (std::string_view record; records.Next(&record);) {
    if (record.empty()) continue;
    const std::size_t eq = record.find('=');
    if (eq == std::string_view::npos) return BadObservation(record);
    const std::string_view key = record.substr(0, eq);
    const std::string_view value = record.substr(eq + 1);
    if (key == "stop") {
      const auto parsed = ParseUint64(value);
      if (!parsed || *parsed > 4) return BadObservation(record);
      observation.stop_reason = static_cast<sim::StopReason>(*parsed);
      saw_stop = true;
    } else if (key == "instr" || key == "iter" || key == "recov" ||
               key == "linkretry") {
      const auto parsed = ParseUint64(value);
      if (!parsed) return BadObservation(record);
      if (key == "instr") observation.instructions = *parsed;
      if (key == "iter") observation.iterations = *parsed;
      if (key == "recov") observation.recovery_count = *parsed;
      if (key == "linkretry") observation.link_words_retried = *parsed;
    } else if (key == "inj") {
      observation.fault_was_injected = value == "1";
    } else if (key == "edm") {
      ASSIGN_OR_RETURN(observation.edm, ParseEdm(value));
    } else if (StartsWith(key, "chain:")) {
      BitVector image;
      if (!BitVector::FromHexString(value, &image)) {
        return BadObservation(record);
      }
      observation.chain_images.insert_or_assign(std::string(key.substr(6)),
                                                std::move(image));
    } else if (key == "out") {
      const auto bytes = HexDecode(value);
      if (!bytes) return BadObservation(record);
      observation.output_region.assign(bytes->begin(), bytes->end());
    } else if (key == "emit") {
      RETURN_IF_ERROR(ParseWordList(value, &observation.emitted));
    } else if (key == "env") {
      RETURN_IF_ERROR(ParseWordList(value, &observation.env_outputs));
    } else if (key == "trace") {
      PieceReader entries(value, '|');
      for (std::string_view entry; entries.Next(&entry);) {
        if (entry.empty()) continue;
        const std::size_t at = entry.find('@');
        if (at == std::string_view::npos) return BadObservation("trace entry");
        const auto time = ParseUint64(entry.substr(0, at));
        BitVector image;
        if (!time || !BitVector::FromHexString(entry.substr(at + 1), &image)) {
          return BadObservation("trace entry '" + std::string(entry) + "'");
        }
        observation.detail_trace.emplace_back(*time, std::move(image));
      }
    } else {
      // Unknown keys from a newer writer are skipped, not fatal.
    }
  }
  if (!saw_stop) return BadObservation("missing stop reason");
  return observation;
}

}  // namespace goofi::target
