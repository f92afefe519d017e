// "Drip" mode: split a generated dataset into a base prefix plus a
// time-ordered tail of held-out papers, replayable as streaming-ingest
// batches (DESIGN.md §16). The tail papers are described by labels only
// (text, author names, venue, topics, cited-paper texts) so the split is
// independent of the ingest wire format — servebench's query_ingest
// workload converts each DripPaper to an IngestBatch record verbatim.
//
// The base dataset keeps every author/venue/topic node and the first
// `num_papers - holdout` papers (paper index = time order: the generator
// only cites backwards). Held-out papers' citations are restricted to
// earlier papers, so replaying the tail in order always resolves them.

#ifndef KPEF_DATA_DRIP_H_
#define KPEF_DATA_DRIP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace kpef {

/// One held-out paper, described entirely by labels. Field order matches
/// the generator's edge-add order (authors in contribution-rank order).
struct DripPaper {
  std::string text;
  std::vector<std::string> authors;
  std::string venue;
  std::vector<std::string> topics;
  /// Texts of cited papers that precede this one in time order.
  std::vector<std::string> cites;
};

struct DripSplit {
  /// Prefix dataset: all non-paper nodes, papers [0, kept).
  Dataset base;
  /// Held-out papers in time (= generation) order.
  std::vector<DripPaper> tail;
};

/// Splits `full` into a base prefix and a held-out tail of `holdout`
/// papers. Fails when holdout is 0 or >= the paper count.
StatusOr<DripSplit> MakeDripSplit(const Dataset& full, size_t holdout);

/// Chunks `tail` into consecutive batches of at most `batch_size`.
std::vector<std::vector<DripPaper>> DripBatches(std::vector<DripPaper> tail,
                                                size_t batch_size);

}  // namespace kpef

#endif  // KPEF_DATA_DRIP_H_
