#include "serve/http.h"

#include <algorithm>
#include <cctype>

namespace p3gm {
namespace serve {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// RFC 7230 token characters, the only bytes legal in a method or header
// name. Everything else (including NUL, spaces and control bytes) makes
// the message malformed.
bool IsTokenChar(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  if (u <= 0x20 || u >= 0x7f) return false;
  switch (c) {
    case '(': case ')': case '<': case '>': case '@':
    case ',': case ';': case ':': case '\\': case '"':
    case '/': case '[': case ']': case '?': case '=':
    case '{': case '}':
      return false;
    default:
      return true;
  }
}

bool IsToken(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), IsTokenChar);
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

const std::string* HttpRequest::QueryParam(const std::string& key) const {
  for (const auto& [name, value] : query_params) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = FindHeader("Connection");
  if (connection != nullptr) {
    if (EqualsIgnoreCase(*connection, "close")) return false;
    if (EqualsIgnoreCase(*connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string HttpResponse::Serialize() const {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += ReasonPhrase(status);
  out += "\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  for (const auto& [key, value] : extra_headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (close_connection) out += "Connection: close\r\n";
  out += "\r\n";
  // Sized from the finished head, so the body is copied exactly once.
  out.reserve(out.size() + body.size());
  out += body;
  return out;
}

HttpParser::HttpParser(HttpLimits limits) : limits_(limits) {}

void HttpParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
}

void HttpParser::Feed(const char* data, std::size_t len) {
  if (state_ == State::kError) return;
  buffer_.append(data, len);
  TryParse();
}

void HttpParser::ResetForNext() {
  if (state_ != State::kDone) return;
  request_ = HttpRequest();
  body_bytes_needed_ = 0;
  state_ = State::kHeaders;
  error_status_ = 0;
  error_message_.clear();
  TryParse();
}

void HttpParser::TryParse() {
  if (state_ == State::kHeaders) {
    // Find the end of the header block without scanning the same prefix
    // repeatedly: the block is small (limits enforced below).
    const std::size_t block_end = buffer_.find("\r\n\r\n");
    if (block_end == std::string::npos) {
      // Enforce limits on the incomplete prefix too, so a peer cannot
      // stream an unbounded header block that never terminates.
      if (buffer_.size() >
          limits_.max_header_bytes + limits_.max_start_line) {
        Fail(431, "header block too large");
      }
      return;
    }
    if (!ParseHeaderBlock(block_end)) return;  // Fail() already called.
    buffer_.erase(0, block_end + 4);
    if (body_bytes_needed_ == 0) {
      state_ = State::kDone;
      return;
    }
    state_ = State::kBody;
  }
  if (state_ == State::kBody) {
    if (buffer_.size() < body_bytes_needed_) return;
    request_.body = buffer_.substr(0, body_bytes_needed_);
    buffer_.erase(0, body_bytes_needed_);
    body_bytes_needed_ = 0;
    state_ = State::kDone;
  }
}

bool HttpParser::ParseHeaderBlock(std::size_t block_end) {
  // --- Request line.
  const std::size_t line_end = buffer_.find("\r\n");
  if (line_end > limits_.max_start_line) {
    Fail(414, "request line too long");
    return false;
  }
  const std::string line = buffer_.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.find(' ', sp2 + 1) != std::string::npos) {
    Fail(400, "malformed request line");
    return false;
  }
  request_.method = line.substr(0, sp1);
  request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  request_.version = line.substr(sp2 + 1);
  if (!IsToken(request_.method)) {
    Fail(400, "malformed method token");
    return false;
  }
  if (request_.target.empty() || request_.target[0] != '/') {
    Fail(400, "target must be an origin-form path");
    return false;
  }
  for (const char c : request_.target) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7f) {
      Fail(400, "control byte in request target");
      return false;
    }
  }
  // Split path from query so routing matches "/v1/metrics" regardless of
  // "?format=...". Parameters keep their raw bytes (no percent decoding).
  const std::size_t qmark = request_.target.find('?');
  if (qmark == std::string::npos) {
    request_.path = request_.target;
  } else {
    request_.path = request_.target.substr(0, qmark);
    request_.query = request_.target.substr(qmark + 1);
    std::size_t start = 0;
    while (start <= request_.query.size() && !request_.query.empty()) {
      std::size_t amp = request_.query.find('&', start);
      if (amp == std::string::npos) amp = request_.query.size();
      const std::string pair = request_.query.substr(start, amp - start);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          request_.query_params.emplace_back(pair, "");
        } else {
          request_.query_params.emplace_back(pair.substr(0, eq),
                                             pair.substr(eq + 1));
        }
      }
      start = amp + 1;
    }
  }
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
    Fail(400, "unsupported HTTP version");
    return false;
  }

  // --- Header fields.
  if (block_end - line_end > limits_.max_header_bytes) {
    Fail(431, "header block too large");
    return false;
  }
  std::size_t pos = line_end + 2;
  bool have_content_length = false;
  while (pos < block_end) {
    const std::size_t eol = std::min(buffer_.find("\r\n", pos), block_end);
    const std::string field = buffer_.substr(pos, eol - pos);
    pos = eol + 2;
    if (request_.headers.size() >= limits_.max_headers) {
      Fail(431, "too many header fields");
      return false;
    }
    const std::size_t colon = field.find(':');
    if (colon == std::string::npos || colon == 0) {
      Fail(400, "malformed header field");
      return false;
    }
    std::string name = field.substr(0, colon);
    if (!IsToken(name)) {
      Fail(400, "malformed header name");
      return false;
    }
    std::size_t vbegin = colon + 1;
    while (vbegin < field.size() &&
           (field[vbegin] == ' ' || field[vbegin] == '\t')) {
      ++vbegin;
    }
    std::size_t vend = field.size();
    while (vend > vbegin &&
           (field[vend - 1] == ' ' || field[vend - 1] == '\t')) {
      --vend;
    }
    std::string value = field.substr(vbegin, vend - vbegin);
    for (const char c : value) {
      const unsigned char u = static_cast<unsigned char>(c);
      if (u < 0x20 && c != '\t') {
        Fail(400, "control byte in header value");
        return false;
      }
    }
    if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      Fail(501, "transfer-encoding not supported");
      return false;
    }
    if (EqualsIgnoreCase(name, "Content-Length")) {
      // Strict digits-only parse: "-1", "1e9", "12abc", empty, and
      // values past the body cap are all rejected before any buffer is
      // sized from them.
      if (value.empty() || value.size() > 20 ||
          !std::all_of(value.begin(), value.end(), [](char c) {
            return c >= '0' && c <= '9';
          })) {
        Fail(400, "malformed Content-Length");
        return false;
      }
      unsigned long long parsed = 0;
      for (const char c : value) {
        parsed = parsed * 10 + static_cast<unsigned long long>(c - '0');
        if (parsed > limits_.max_body_bytes) {
          Fail(413, "declared body exceeds limit");
          return false;
        }
      }
      const std::size_t length = static_cast<std::size_t>(parsed);
      if (have_content_length && length != body_bytes_needed_) {
        Fail(400, "conflicting Content-Length headers");
        return false;
      }
      have_content_length = true;
      body_bytes_needed_ = length;
    }
    request_.headers.emplace_back(std::move(name), std::move(value));
  }
  return true;
}

}  // namespace serve
}  // namespace p3gm
