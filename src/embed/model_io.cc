#include "embed/model_io.h"

#include <cstdint>
#include <fstream>

namespace kpef {
namespace {

constexpr uint32_t kMatrixMagic = 0x4B50464D;   // "KPFM"
constexpr uint32_t kEncoderMagic = 0x4B504645;  // "KPFE"
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

Status WriteFloats(std::ostream& out, const std::vector<float>& data) {
  const uint64_t count = data.size();
  WritePod(out, count);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

StatusOr<std::vector<float>> ReadFloats(std::istream& in,
                                        uint64_t max_count = (1ull << 32)) {
  uint64_t count = 0;
  if (!ReadPod(in, count) || count > max_count) {
    return Status::InvalidArgument("corrupt float array header");
  }
  if (!StreamHolds(in, count * sizeof(float))) {
    return Status::InvalidArgument("truncated float array");
  }
  std::vector<float> data(count);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) return Status::InvalidArgument("truncated float array");
  return data;
}

// Writes a matrix's logical values as one flat float array (rows * cols;
// the in-memory row padding is not serialized, keeping the on-disk
// format identical to pre-padding builds).
Status WriteMatrixValues(std::ostream& out, const Matrix& matrix) {
  const uint64_t count =
      static_cast<uint64_t>(matrix.rows()) * matrix.cols();
  WritePod(out, count);
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const auto row = matrix.Row(r);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

// Reads a flat float array written by WriteMatrixValues into `matrix`
// (whose dimensions must already match the serialized count).
Status ReadMatrixValues(std::istream& in, Matrix& matrix) {
  uint64_t count = 0;
  if (!ReadPod(in, count) ||
      count != static_cast<uint64_t>(matrix.rows()) * matrix.cols()) {
    return Status::InvalidArgument("matrix size mismatch");
  }
  for (size_t r = 0; r < matrix.rows(); ++r) {
    auto row = matrix.Row(r);
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
  if (!in) return Status::InvalidArgument("truncated float array");
  return Status::OK();
}

}  // namespace

bool StreamHolds(std::istream& in, uint64_t bytes) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return true;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::istream::pos_type(-1)) return true;
  return static_cast<uint64_t>(end - here) >= bytes;
}

bool PlausibleMatrixDims(uint64_t rows, uint64_t cols) {
  constexpr uint64_t kMaxRows = 1ull << 32;
  constexpr uint64_t kMaxCols = 1ull << 20;
  constexpr uint64_t kMaxFloats = 1ull << 31;
  if (rows > kMaxRows || cols > kMaxCols) return false;
  if (rows == 0) return true;
  if (cols == 0) return false;
  return rows <= kMaxFloats / PadToKernelWidth(cols);
}

Status SaveMatrix(const Matrix& matrix, std::ostream& out) {
  WritePod(out, kMatrixMagic);
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(matrix.rows()));
  WritePod(out, static_cast<uint64_t>(matrix.cols()));
  return WriteMatrixValues(out, matrix);
}

Status SaveMatrix(const Matrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  KPEF_RETURN_IF_ERROR(SaveMatrix(matrix, out));
  out.close();
  if (!out) return Status::IOError("flush failed for " + path);
  return Status::OK();
}

StatusOr<Matrix> LoadMatrix(std::istream& in) {
  uint32_t magic = 0, version = 0;
  uint64_t rows = 0, cols = 0;
  if (!ReadPod(in, magic) || magic != kMatrixMagic) {
    return Status::InvalidArgument("not a kpef matrix file");
  }
  if (!ReadPod(in, version) || version != kVersion) {
    return Status::InvalidArgument("unsupported matrix version");
  }
  if (!ReadPod(in, rows) || !ReadPod(in, cols) ||
      !PlausibleMatrixDims(rows, cols)) {
    return Status::InvalidArgument("corrupt matrix header");
  }
  // The value count, then rows * cols floats.
  if (!StreamHolds(in, sizeof(uint64_t) + rows * cols * sizeof(float))) {
    return Status::InvalidArgument("matrix header declares more data than "
                                   "the file holds");
  }
  Matrix matrix(rows, cols);
  KPEF_RETURN_IF_ERROR(ReadMatrixValues(in, matrix));
  return matrix;
}

StatusOr<Matrix> LoadMatrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadMatrix(in);
}

Status SaveEncoder(const DocumentEncoder& encoder, std::ostream& out) {
  WritePod(out, kEncoderMagic);
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(encoder.vocab_size()));
  WritePod(out, static_cast<uint64_t>(encoder.dim()));
  WritePod(out, static_cast<int32_t>(encoder.config().pooling));
  WritePod(out, static_cast<uint8_t>(encoder.config().normalize_output));
  KPEF_RETURN_IF_ERROR(WriteMatrixValues(out, encoder.token_embeddings()));
  KPEF_RETURN_IF_ERROR(WriteMatrixValues(out, encoder.projection()));
  KPEF_RETURN_IF_ERROR(WriteFloats(out, encoder.bias()));
  return WriteFloats(out, encoder.token_weights());
}

Status SaveEncoder(const DocumentEncoder& encoder, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  KPEF_RETURN_IF_ERROR(SaveEncoder(encoder, out));
  out.close();
  if (!out) return Status::IOError("flush failed for " + path);
  return Status::OK();
}

StatusOr<DocumentEncoder> LoadEncoder(std::istream& in) {
  uint32_t magic = 0, version = 0;
  uint64_t vocab = 0, dim = 0;
  int32_t pooling = 0;
  uint8_t normalize = 1;
  if (!ReadPod(in, magic) || magic != kEncoderMagic) {
    return Status::InvalidArgument("not a kpef encoder file");
  }
  if (!ReadPod(in, version) || version != kVersion) {
    return Status::InvalidArgument("unsupported encoder version");
  }
  if (!ReadPod(in, vocab) || !ReadPod(in, dim) || !ReadPod(in, pooling) ||
      !ReadPod(in, normalize)) {
    return Status::InvalidArgument("corrupt encoder header");
  }
  if (pooling < 0 || pooling > static_cast<int32_t>(Pooling::kWeightedMean)) {
    return Status::InvalidArgument("unknown pooling mode");
  }
  // The encoder allocates a vocab x dim token table and a dim x dim
  // projection.
  if (!PlausibleMatrixDims(vocab, dim) || !PlausibleMatrixDims(dim, dim)) {
    return Status::InvalidArgument("implausible encoder dimensions");
  }
  // Four counted arrays: the token table, the projection, the bias and
  // the (possibly empty) token weights.
  if (!StreamHolds(in, 4 * sizeof(uint64_t) +
                           (vocab * dim + dim * dim + dim) * sizeof(float))) {
    return Status::InvalidArgument("encoder header declares more data than "
                                   "the file holds");
  }
  EncoderConfig config;
  config.dim = dim;
  config.pooling = static_cast<Pooling>(pooling);
  config.normalize_output = normalize != 0;
  DocumentEncoder encoder(vocab, config);

  KPEF_RETURN_IF_ERROR(ReadMatrixValues(in, encoder.token_embeddings()));
  KPEF_RETURN_IF_ERROR(ReadMatrixValues(in, encoder.projection()));
  // Cap the declared array sizes by what the header implies, so a
  // corrupt count is rejected before the vector allocation, not after.
  KPEF_ASSIGN_OR_RETURN(std::vector<float> bias, ReadFloats(in, dim));
  if (bias.size() != dim) {
    return Status::InvalidArgument("bias size mismatch");
  }
  encoder.bias() = std::move(bias);
  KPEF_ASSIGN_OR_RETURN(std::vector<float> weights, ReadFloats(in, vocab));
  if (!weights.empty()) {
    if (weights.size() != vocab) {
      return Status::InvalidArgument("token weight size mismatch");
    }
    encoder.SetTokenWeights(std::move(weights));
  }
  return encoder;
}

StatusOr<DocumentEncoder> LoadEncoder(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadEncoder(in);
}

}  // namespace kpef
