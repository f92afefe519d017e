// Tokenized document collection: the bridge between raw paper labels
// L(p) = title + abstract and every text model in the library.

#ifndef KPEF_TEXT_CORPUS_H_
#define KPEF_TEXT_CORPUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/append_store.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace kpef {

/// Owns the vocabulary plus one token-id sequence per document.
///
/// Documents are appended in order; the document id is the append index
/// (papers use their paper index, so Corpus doc i == paper i).
///
/// Copies are cheap: they share the documents (an AppendStore) and the
/// vocabulary, which AddDocument, its one writer, clones first while
/// another copy shares it. Streaming ingest appends through
/// AddDocumentFrozen, so its published snapshots all share one frozen
/// vocabulary.
class Corpus {
 public:
  explicit Corpus(TokenizerOptions tokenizer_options = {})
      : tokenizer_(tokenizer_options) {}

  /// Tokenizes and appends a document; returns its id. Grows the
  /// vocabulary and updates document frequencies.
  size_t AddDocument(std::string_view text);

  /// Tokenizes and appends a document WITHOUT touching the vocabulary:
  /// tokens are encoded against the frozen vocab (OOV dropped) and
  /// document frequencies are left alone, so a loaded encoder's
  /// vocab_size check keeps holding. Streaming ingestion appends new
  /// papers this way; returns the new document id.
  size_t AddDocumentFrozen(std::string_view text);

  /// Tokenizes `text` against the frozen vocabulary (OOV tokens dropped).
  /// Used for query texts at search time.
  std::vector<TokenId> EncodeQuery(std::string_view text) const;

  size_t NumDocuments() const { return documents_.size(); }
  const std::vector<TokenId>& Document(size_t doc) const {
    return documents_[doc];
  }

  const Vocabulary& vocabulary() const { return *vocabulary_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }

  /// Total token count over all documents.
  size_t TotalTokens() const { return total_tokens_; }

 private:
  /// The vocabulary, unshared first (AddDocument's copy on write).
  Vocabulary& OwnVocabulary();

  Tokenizer tokenizer_;
  std::shared_ptr<Vocabulary> vocabulary_ = std::make_shared<Vocabulary>();
  AppendStore<std::vector<TokenId>> documents_;
  size_t total_tokens_ = 0;
};

}  // namespace kpef

#endif  // KPEF_TEXT_CORPUS_H_
