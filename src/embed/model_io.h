// Binary persistence for embedding artifacts: matrices (token tables,
// paper embeddings E) and the fine-tuned document encoder.
//
// The paper's pipeline builds embeddings and the PG-Index offline and
// serves queries online; these helpers let the offline artifacts be
// written to disk and reloaded by a serving process. Format is
// host-endian binary with magic headers (not a cross-architecture
// interchange format).

#ifndef KPEF_EMBED_MODEL_IO_H_
#define KPEF_EMBED_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "embed/document_encoder.h"
#include "embed/matrix.h"

namespace kpef {

/// The one plausibility rule for a serialized header's matrix
/// dimensions, checked before anything is allocated. rows and cols are
/// bounded individually first, so nothing below can wrap; then the
/// allocation Matrix(rows, cols) would make, rows * PadToKernelWidth(cols)
/// floats, must stay within 2^31; and rows > 0 needs cols > 0 (zero-width
/// rows would let a header claim 2^32 rows for free). LoadMatrix,
/// LoadEncoder and PGIndex::Load all call it, and then StreamHolds.
bool PlausibleMatrixDims(uint64_t rows, uint64_t cols);

/// Whether at least `bytes` bytes are left in `in` past its read
/// position. Each loader checks the payload its header declares with
/// this before it allocates for it, so a short file is refused instead
/// of committing memory it could never fill. A stream that cannot
/// report its size (not seekable) passes; the read that follows then
/// fails on truncation as before.
bool StreamHolds(std::istream& in, uint64_t bytes);

/// Writes a matrix (magic, rows, cols, row-major float data).
Status SaveMatrix(const Matrix& matrix, const std::string& path);
Status SaveMatrix(const Matrix& matrix, std::ostream& out);

/// Reads a matrix written by SaveMatrix.
StatusOr<Matrix> LoadMatrix(const std::string& path);
StatusOr<Matrix> LoadMatrix(std::istream& in);

/// Writes the encoder: config (dim, pooling, normalization), token table,
/// projection, bias, and optional pooling weights.
Status SaveEncoder(const DocumentEncoder& encoder, const std::string& path);
Status SaveEncoder(const DocumentEncoder& encoder, std::ostream& out);

/// Reads an encoder written by SaveEncoder.
StatusOr<DocumentEncoder> LoadEncoder(const std::string& path);
StatusOr<DocumentEncoder> LoadEncoder(std::istream& in);

}  // namespace kpef

#endif  // KPEF_EMBED_MODEL_IO_H_
