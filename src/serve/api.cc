#include "serve/api.h"

#include <cmath>

#include "obs/json.h"

namespace p3gm {
namespace serve {

bool Utf8Valid(const std::string& s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  const unsigned char* end = p + s.size();
  while (p < end) {
    const unsigned char c = *p;
    if (c < 0x80) {
      ++p;
      continue;
    }
    int extra;
    unsigned cp;
    if ((c & 0xE0) == 0xC0) {
      extra = 1;
      cp = c & 0x1Fu;
    } else if ((c & 0xF0) == 0xE0) {
      extra = 2;
      cp = c & 0x0Fu;
    } else if ((c & 0xF8) == 0xF0) {
      extra = 3;
      cp = c & 0x07u;
    } else {
      return false;  // Lone continuation byte or 0xF8+ lead.
    }
    if (end - p <= extra) return false;  // Truncated sequence.
    for (int i = 1; i <= extra; ++i) {
      if ((p[i] & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (p[i] & 0x3Fu);
    }
    // Overlong encodings, UTF-16 surrogates and out-of-range points are
    // the classic smuggling vectors; reject all three.
    static constexpr unsigned kMinByLen[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < kMinByLen[extra]) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    p += extra + 1;
  }
  return true;
}

util::Result<SampleRequest> ParseSampleRequest(const std::string& body,
                                               std::size_t max_n) {
  if (!Utf8Valid(body)) {
    return util::Status::InvalidArgument("body is not valid UTF-8");
  }
  obs::json::Value root;
  std::string error;
  if (!obs::json::Parse(body, &root, &error)) {
    return util::Status::InvalidArgument("malformed JSON: " + error);
  }
  if (!root.is_object()) {
    return util::Status::InvalidArgument("body must be a JSON object");
  }
  SampleRequest req;
  const obs::json::Value* model = root.Find("model");
  if (model == nullptr || !model->is_string() ||
      model->string_value.empty()) {
    return util::Status::InvalidArgument(
        "\"model\" must be a non-empty string");
  }
  req.model = model->string_value;
  const obs::json::Value* n = root.Find("n");
  if (n == nullptr || !n->is_number()) {
    return util::Status::InvalidArgument("\"n\" must be a number");
  }
  const double nv = n->number_value;
  if (!(nv >= 1.0) || nv != std::floor(nv)) {
    return util::Status::OutOfRange("\"n\" must be a positive integer");
  }
  if (nv > static_cast<double>(max_n)) {
    return util::Status::OutOfRange(
        "\"n\" exceeds the server's --max-n limit");
  }
  req.n = static_cast<std::size_t>(nv);
  if (const obs::json::Value* seed = root.Find("seed")) {
    const double sv = seed->number_value;
    // 2^53: the largest width at which every integer survives the
    // JSON-number (double) round trip, so a client never gets a
    // silently truncated seed.
    if (!seed->is_number() || sv < 0.0 || sv != std::floor(sv) ||
        sv > 9007199254740992.0) {
      return util::Status::InvalidArgument(
          "\"seed\" must be a non-negative integer <= 2^53");
    }
    req.has_seed = true;
    req.seed = static_cast<std::uint64_t>(sv);
  }
  if (const obs::json::Value* fresh = root.Find("fresh")) {
    if (fresh->kind != obs::json::Value::Kind::kBool) {
      return util::Status::InvalidArgument("\"fresh\" must be a boolean");
    }
    req.fresh = fresh->bool_value;
  }
  return req;
}

std::string ErrorJson(const std::string& message) {
  return "{\"error\": \"" + obs::json::Escape(message) + "\"}";
}

std::string SampleResponseJson(const std::string& model,
                               std::uint64_t generation, bool cached,
                               const data::Dataset& rows) {
  std::string out = "{\"model\": \"" + obs::json::Escape(model) + "\"";
  out += ", \"generation\": " + std::to_string(generation);
  out += ", \"n\": " + std::to_string(rows.size());
  out += ", \"dim\": " + std::to_string(rows.dim());
  out += ", \"num_classes\": " + std::to_string(rows.num_classes);
  out += cached ? ", \"cached\": true" : ", \"cached\": false";
  out += ", \"rows\": [";
  // Reserve the worst case once, so the body never reallocates: a value
  // takes at most kMaxNumberChars plus its ", ", a row adds "[]" and
  // ", ", a label at most 20 digits and ", ", and the tail is 16 bytes.
  const std::size_t value_bytes = obs::json::kMaxNumberChars + 2;
  out.reserve(out.size() + rows.size() * (rows.dim() * value_bytes + 4) +
              rows.labels.size() * 22 + 16);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ", ";
    out += '[';
    const double* row = rows.features.row_data(i);
    for (std::size_t j = 0; j < rows.dim(); ++j) {
      if (j > 0) out += ", ";
      obs::json::AppendNumber(&out, row[j]);
    }
    out += ']';
  }
  out += "], \"labels\": [";
  for (std::size_t i = 0; i < rows.labels.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(rows.labels[i]);
  }
  out += "]}";
  return out;
}

}  // namespace serve
}  // namespace p3gm
