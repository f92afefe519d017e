#include "text/corpus.h"

#include <unordered_set>

namespace kpef {

Vocabulary& Corpus::OwnVocabulary() {
  if (vocabulary_.use_count() != 1) {
    vocabulary_ = std::make_shared<Vocabulary>(*vocabulary_);
  }
  return *vocabulary_;
}

size_t Corpus::AddDocument(std::string_view text) {
  const std::vector<std::string> tokens = tokenizer_.Tokenize(text);
  Vocabulary& vocabulary = OwnVocabulary();
  std::vector<TokenId> ids = vocabulary.EncodeAndAdd(tokens);
  total_tokens_ += ids.size();
  // Document frequency counts each token once per document.
  std::unordered_set<TokenId> unique(ids.begin(), ids.end());
  for (TokenId id : unique) vocabulary.BumpDocumentFrequency(id);
  documents_.push_back(std::move(ids));
  return documents_.size() - 1;
}

size_t Corpus::AddDocumentFrozen(std::string_view text) {
  std::vector<TokenId> ids = vocabulary_->Encode(tokenizer_.Tokenize(text));
  total_tokens_ += ids.size();
  documents_.push_back(std::move(ids));
  return documents_.size() - 1;
}

std::vector<TokenId> Corpus::EncodeQuery(std::string_view text) const {
  return vocabulary_->Encode(tokenizer_.Tokenize(text));
}

}  // namespace kpef
