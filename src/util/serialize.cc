#include "util/serialize.h"

namespace p3gm {
namespace util {

namespace {
// Sanity cap on element counts read from untrusted files (1 GiB of
// doubles).
constexpr std::uint64_t kMaxElements = (1ULL << 30) / sizeof(double);
}  // namespace

BinaryWriter::BinaryWriter(const std::string& path, std::uint32_t magic,
                           std::uint32_t version)
    : out_(path, std::ios::binary) {
  if (!out_.is_open()) {
    status_ = Status::IoError("cannot open for writing: " + path);
    return;
  }
  WriteRaw(&magic, sizeof(magic));
  WriteRaw(&version, sizeof(version));
}

void BinaryWriter::WriteRaw(const void* data, std::size_t bytes) {
  if (!status_.ok()) return;
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) status_ = Status::IoError("write failed");
}

void BinaryWriter::WriteU64(std::uint64_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteDoubles(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::WriteMatrix(std::size_t rows, std::size_t cols,
                               const double* data) {
  WriteU64(rows);
  WriteU64(cols);
  WriteRaw(data, rows * cols * sizeof(double));
}

Status BinaryWriter::Close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_) status_ = Status::IoError("flush failed");
    out_.close();
  }
  return status_;
}

BinaryReader::BinaryReader(const std::string& path,
                           std::uint32_t expected_magic,
                           std::uint32_t expected_version)
    : BinaryReader(path, expected_magic, expected_version, expected_version) {}

BinaryReader::BinaryReader(const std::string& path,
                           std::uint32_t expected_magic,
                           std::uint32_t min_version,
                           std::uint32_t max_version)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    status_ = Status::IoError("cannot open for reading: " + path);
    return;
  }
  std::uint32_t magic = 0, version = 0;
  status_ = ReadRaw(&magic, sizeof(magic));
  if (status_.ok()) status_ = ReadRaw(&version, sizeof(version));
  if (status_.ok() && magic != expected_magic) {
    status_ = Status::InvalidArgument("bad magic in " + path);
  }
  if (status_.ok() && (version < min_version || version > max_version)) {
    status_ = Status::InvalidArgument("unsupported version in " + path);
  }
  if (status_.ok()) version_ = version;
}

Status BinaryReader::ReadRaw(void* data, std::size_t bytes) {
  if (!status_.ok()) return status_;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in_) {
    status_ = Status::IoError("truncated read");
  }
  return status_;
}

Result<std::uint64_t> BinaryReader::ReadU64() {
  std::uint64_t v = 0;
  P3GM_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  double v = 0;
  P3GM_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  P3GM_ASSIGN_OR_RETURN(std::uint64_t n, ReadU64());
  if (n > kMaxElements) {
    return Status::InvalidArgument("string length implausible");
  }
  std::string s(n, '\0');
  P3GM_RETURN_NOT_OK(ReadRaw(s.data(), n));
  return s;
}

Result<std::vector<double>> BinaryReader::ReadDoubles() {
  P3GM_ASSIGN_OR_RETURN(std::uint64_t n, ReadU64());
  if (n > kMaxElements) {
    return Status::InvalidArgument("vector length implausible");
  }
  std::vector<double> v(n);
  P3GM_RETURN_NOT_OK(ReadRaw(v.data(), n * sizeof(double)));
  return v;
}

Status BinaryReader::ReadMatrix(std::size_t* rows, std::size_t* cols,
                                std::vector<double>* flat) {
  P3GM_ASSIGN_OR_RETURN(std::uint64_t r, ReadU64());
  P3GM_ASSIGN_OR_RETURN(std::uint64_t c, ReadU64());
  // Divide rather than multiply: r * c wraps in 64 bits.
  if (c != 0 && r > kMaxElements / c) {
    return Status::InvalidArgument("matrix size implausible");
  }
  *rows = static_cast<std::size_t>(r);
  *cols = static_cast<std::size_t>(c);
  flat->resize(r * c);
  return ReadRaw(flat->data(), flat->size() * sizeof(double));
}

}  // namespace util
}  // namespace p3gm
