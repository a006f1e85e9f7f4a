// Hardening tests for the serve HTTP/JSON boundary: a table-driven
// malformed-input corpus for the incremental HttpParser, the strict
// UTF-8 validator, and the sample-request JSON schema (including
// deeply nested payloads, which must be rejected by the depth-limited
// parser rather than recursing to a crash). These run under ASan/UBSan
// in the sanitizer CI config: the contract is "4xx status, never a
// crash" for every byte sequence here.

#include <cstdio>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "serve/api.h"
#include "serve/http.h"

namespace p3gm {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// HttpParser: well-formed messages.

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  parser.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_TRUE(parser.request().KeepAlive());
}

TEST(HttpParser, ParsesBodyWithContentLength) {
  HttpParser parser;
  parser.Feed("POST /v1/sample HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "abcd");
}

TEST(HttpParser, IncrementalOneByteAtATime) {
  const std::string wire =
      "POST /v1/sample HTTP/1.1\r\nContent-Length: 2\r\nX-Extra: v\r\n\r\nhi";
  HttpParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed());
    parser.Feed(&c, 1);
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "hi");
  const std::string* extra = parser.request().FindHeader("x-extra");
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, "v");
}

TEST(HttpParser, PipelinedRequestsSurviveReset) {
  HttpParser parser;
  parser.Feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().target, "/a");
  parser.ResetForNext();
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().target, "/b");
  parser.ResetForNext();
  EXPECT_FALSE(parser.done());
  EXPECT_FALSE(parser.failed());
}

TEST(HttpParser, ConnectionCloseDisablesKeepAlive) {
  HttpParser parser;
  parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.request().KeepAlive());
}

TEST(HttpParser, Http10DefaultsToClose) {
  HttpParser parser;
  parser.Feed("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.request().KeepAlive());
}

// ---------------------------------------------------------------------
// HttpParser: malformed-input corpus. Each entry must produce the given
// 4xx/5xx status without crashing, regardless of how bytes are chunked.

struct MalformedCase {
  const char* name;
  std::string wire;
  int want_status;
};

std::vector<MalformedCase> MalformedCorpus() {
  std::vector<MalformedCase> cases = {
      {"bare_lf_request_line", "GET / HTTP/1.1\n\r\n\r\n", 400},
      {"missing_target", "GET HTTP/1.1\r\n\r\n", 400},
      {"three_spaces", "GET /  HTTP/1.1\r\n\r\n", 400},
      {"bad_version", "GET / HTTP/2.0\r\n\r\n", 400},
      {"lowercase_method_ok_but_bad_version", "get / HTTQ/1.1\r\n\r\n", 400},
      {"ctl_in_target", std::string("GET /a\x01" "b HTTP/1.1\r\n\r\n"), 400},
      {"header_without_colon", "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"space_before_colon", "GET / HTTP/1.1\r\nKey : v\r\n\r\n", 400},
      {"ctl_in_header_value",
       std::string("GET / HTTP/1.1\r\nKey: a\x02" "b\r\n\r\n"), 400},
      {"empty_header_name", "GET / HTTP/1.1\r\n: v\r\n\r\n", 400},
      {"content_length_not_numeric",
       "POST / HTTP/1.1\r\nContent-Length: 12a\r\n\r\n", 400},
      {"content_length_negative",
       "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400},
      {"content_length_overflow",
       "POST / HTTP/1.1\r\nContent-Length: "
       "99999999999999999999999999\r\n\r\n",
       400},
      {"content_length_conflicting",
       "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
       400},
      {"content_length_oversized",
       "POST / HTTP/1.1\r\nContent-Length: 10485760\r\n\r\n", 413},
      {"transfer_encoding_chunked",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  // Oversized request line (> 8 KiB of target).
  cases.push_back({"request_line_too_long",
                   "GET /" + std::string(9000, 'a') + " HTTP/1.1\r\n\r\n",
                   414});
  // Header block over the 16 KiB cap.
  std::string big_headers = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 200; ++i) {
    big_headers += "X-H" + std::to_string(i) + ": " + std::string(100, 'v') +
                   "\r\n";
  }
  big_headers += "\r\n";
  cases.push_back({"header_block_too_large", big_headers, 431});
  // Too many headers (> 64) within the byte budget.
  std::string many_headers = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 80; ++i) {
    many_headers += "X-" + std::to_string(i) + ": v\r\n";
  }
  many_headers += "\r\n";
  cases.push_back({"too_many_headers", many_headers, 431});
  return cases;
}

TEST(HttpParserMalformed, WholeCorpusFedAtOnce) {
  for (const MalformedCase& c : MalformedCorpus()) {
    HttpParser parser;
    parser.Feed(c.wire);
    EXPECT_TRUE(parser.failed()) << c.name;
    EXPECT_EQ(parser.error_status(), c.want_status) << c.name;
    EXPECT_FALSE(parser.error_message().empty()) << c.name;
  }
}

TEST(HttpParserMalformed, WholeCorpusFedByteByByte) {
  for (const MalformedCase& c : MalformedCorpus()) {
    HttpParser parser;
    for (char byte : c.wire) {
      parser.Feed(&byte, 1);
      if (parser.failed()) break;
    }
    EXPECT_TRUE(parser.failed()) << c.name;
    EXPECT_EQ(parser.error_status(), c.want_status) << c.name;
  }
}

TEST(HttpParserMalformed, TruncatedHeadersNeverComplete) {
  // Prefixes of a valid request must neither complete nor fail — the
  // parser just waits for more bytes (the connection-level read timeout
  // is the server's concern, not the parser's).
  const std::string wire =
      "POST /v1/sample HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  for (std::size_t cut = 0; cut + 1 < wire.size(); ++cut) {
    HttpParser parser;
    parser.Feed(wire.substr(0, cut));
    EXPECT_FALSE(parser.done()) << "cut=" << cut;
    EXPECT_FALSE(parser.failed()) << "cut=" << cut;
  }
}

TEST(HttpParserMalformed, GarbageBytesDoNotCrash) {
  // Every 1-byte value in each structural position; assert only
  // "no crash, no false completion of a body".
  std::string base = "GET / HTTP/1.1\r\n\r\n";
  for (int b = 0; b < 256; ++b) {
    for (std::size_t pos = 0; pos < base.size(); ++pos) {
      std::string wire = base;
      wire[pos] = static_cast<char>(b);
      HttpParser parser;
      parser.Feed(wire);
      // done() or failed() are both acceptable; hanging in kBody with a
      // huge expectation is not.
      if (parser.state() == HttpParser::State::kBody) {
        ADD_FAILURE() << "byte " << b << " at pos " << pos
                      << " put parser into kBody for a GET";
      }
    }
  }
}

// ---------------------------------------------------------------------
// HttpResponse serialization.

TEST(HttpResponse, SerializesStatusHeadersAndLength) {
  HttpResponse response;
  response.status = 503;
  response.body = "{}";
  response.extra_headers.emplace_back("Retry-After", "1");
  response.close_connection = true;
  const std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 6), "\r\n\r\n{}");
}

// ---------------------------------------------------------------------
// UTF-8 validation.

TEST(Utf8Valid, AcceptsWellFormed) {
  EXPECT_TRUE(Utf8Valid(""));
  EXPECT_TRUE(Utf8Valid("plain ascii"));
  EXPECT_TRUE(Utf8Valid("caf\xc3\xa9"));                  // U+00E9.
  EXPECT_TRUE(Utf8Valid("\xe2\x82\xac"));                 // U+20AC.
  EXPECT_TRUE(Utf8Valid("\xf0\x9f\x98\x80"));             // U+1F600.
  EXPECT_TRUE(Utf8Valid(std::string("nul\0byte", 8)));    // NUL is valid.
}

TEST(Utf8Valid, RejectsMalformed) {
  EXPECT_FALSE(Utf8Valid("\x80"));               // Lone continuation.
  EXPECT_FALSE(Utf8Valid("\xc3"));               // Truncated 2-byte.
  EXPECT_FALSE(Utf8Valid("\xe2\x82"));           // Truncated 3-byte.
  EXPECT_FALSE(Utf8Valid("\xf0\x9f\x98"));       // Truncated 4-byte.
  EXPECT_FALSE(Utf8Valid("\xc0\xaf"));           // Overlong '/'.
  EXPECT_FALSE(Utf8Valid("\xe0\x80\xaf"));       // Overlong 3-byte.
  EXPECT_FALSE(Utf8Valid("\xf0\x80\x80\xaf"));   // Overlong 4-byte.
  EXPECT_FALSE(Utf8Valid("\xed\xa0\x80"));       // Surrogate U+D800.
  EXPECT_FALSE(Utf8Valid("\xf4\x90\x80\x80"));   // Above U+10FFFF.
  EXPECT_FALSE(Utf8Valid("\xfe"));               // Invalid lead byte.
  EXPECT_FALSE(Utf8Valid("\xff\xff"));
  EXPECT_FALSE(Utf8Valid("a\xc3(b"));            // Bad continuation.
}

// ---------------------------------------------------------------------
// Sample-request schema.

TEST(ParseSampleRequest, AcceptsMinimal) {
  auto req = ParseSampleRequest("{\"model\": \"m\", \"n\": 5}", 100);
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->model, "m");
  EXPECT_EQ(req->n, 5u);
  EXPECT_FALSE(req->has_seed);
  EXPECT_FALSE(req->fresh);
}

TEST(ParseSampleRequest, AcceptsSeedAndFresh) {
  auto req = ParseSampleRequest(
      "{\"model\": \"m\", \"n\": 2, \"seed\": 123, \"fresh\": true}", 100);
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_TRUE(req->has_seed);
  EXPECT_EQ(req->seed, 123u);
  EXPECT_TRUE(req->fresh);
}

TEST(ParseSampleRequest, RejectsBadInputs) {
  const std::size_t max_n = 100;
  const char* bad[] = {
      "",                                       // Empty body.
      "not json",                               // Not JSON.
      "[1, 2]",                                 // Not an object.
      "{\"n\": 5}",                             // Missing model.
      "{\"model\": 3, \"n\": 5}",               // Model not a string.
      "{\"model\": \"\", \"n\": 5}",            // Empty model.
      "{\"model\": \"m\"}",                     // Missing n.
      "{\"model\": \"m\", \"n\": 0}",           // n = 0.
      "{\"model\": \"m\", \"n\": -3}",          // Negative.
      "{\"model\": \"m\", \"n\": 2.5}",         // Non-integral.
      "{\"model\": \"m\", \"n\": \"5\"}",       // String n.
      "{\"model\": \"m\", \"n\": 5, \"seed\": 1.5}",    // Bad seed.
      "{\"model\": \"m\", \"n\": 5, \"fresh\": 1}",     // Bad fresh.
      "{\"model\": \"m\", \"n\": 5",            // Truncated JSON.
  };
  for (const char* body : bad) {
    auto req = ParseSampleRequest(body, max_n);
    EXPECT_FALSE(req.ok()) << "body: " << body;
  }
}

TEST(ParseSampleRequest, RejectsNOverMax) {
  auto req = ParseSampleRequest("{\"model\": \"m\", \"n\": 101}", 100);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), util::StatusCode::kOutOfRange);
}

TEST(ParseSampleRequest, RejectsInvalidUtf8Body) {
  auto req = ParseSampleRequest("{\"model\": \"\xc3(\", \"n\": 5}", 100);
  EXPECT_FALSE(req.ok());
}

TEST(ParseSampleRequest, RejectsDeeplyNestedJson) {
  // 500 nesting levels — far beyond the JSON parser's depth limit. Must
  // return InvalidArgument, not overflow the stack.
  std::string body = "{\"model\": \"m\", \"n\": 5, \"x\": ";
  for (int i = 0; i < 500; ++i) body += "[";
  for (int i = 0; i < 500; ++i) body += "]";
  body += "}";
  auto req = ParseSampleRequest(body, 100);
  EXPECT_FALSE(req.ok());
}

TEST(ErrorJson, EscapesMessage) {
  EXPECT_EQ(ErrorJson("a \"b\"\n"), "{\"error\": \"a \\\"b\\\"\\n\"}");
}

// The body's numbers are printf("%.17g") bytes, so the expected string
// is built with snprintf; values cover what a Gaussian decoder can emit.
TEST(SampleResponseJson, WritesEveryValueAsPrintf17g) {
  const std::vector<double> values = {
      -0.25, -0.0, 1e-7,         1e300, 123456789.25, 3.0,
      0.0,   1.0,  -1234567.0,   0.1,   1.0 / 3.0,    -2.5e-300};
  data::Dataset rows;
  rows.features = linalg::Matrix(3, 4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    rows.features.data()[i] = values[i];
  }
  rows.labels = {2, 0, 1};
  rows.num_classes = 3;

  std::string want =
      "{\"model\": \"m\\\"x\", \"generation\": 7, \"n\": 3, \"dim\": 4, "
      "\"num_classes\": 3, \"cached\": true, \"rows\": [";
  for (std::size_t i = 0; i < 3; ++i) {
    want += i > 0 ? ", [" : "[";
    for (std::size_t j = 0; j < 4; ++j) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", values[i * 4 + j]);
      want += j > 0 ? ", " : "";
      want += buf;
    }
    want += ']';
  }
  want += "], \"labels\": [2, 0, 1]}";
  const std::string got = SampleResponseJson("m\"x", 7, /*cached=*/true, rows);
  EXPECT_EQ(got, want);
  // Exponent form and the sign of zero, spelled out.
  EXPECT_NE(got.find("[-0.25, -0, 9.9999999999999995e-08, "
                     "1.0000000000000001e+300]"),
            std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace p3gm
