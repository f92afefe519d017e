#include "ingest/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef {

StatusOr<std::unique_ptr<IngestCoordinator>> IngestCoordinator::Create(
    EngineGroup* group, const EngineConfig& config, IngestOptions options) {
  if (group == nullptr) {
    return Status::InvalidArgument("ingest needs an engine group");
  }
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("ingest needs a WAL path");
  }
  auto coordinator = std::unique_ptr<IngestCoordinator>(
      new IngestCoordinator(config, std::move(options)));
  coordinator->group_ = group;
  KPEF_RETURN_IF_ERROR(coordinator->InitStaging(group));

  // The fingerprint pins the WAL to the artifacts it extends: the base
  // graph's node/edge counts are identical across restarts of the same
  // artifact set and differ across rebuilds.
  const WalFingerprint fingerprint{group->dataset().graph.NumNodes(),
                                   group->dataset().graph.NumEdges()};
  std::vector<std::vector<uint8_t>> replay_records;
  std::error_code ec;
  if (std::filesystem::exists(coordinator->options_.wal_path, ec)) {
    KPEF_ASSIGN_OR_RETURN(
        WalReplay replay,
        ReadWal(coordinator->options_.wal_path, fingerprint));
    if (!replay.truncation_reason.empty()) {
      KPEF_LOG(Warning) << "WAL tail dropped (" << replay.truncation_reason
                        << "): " << replay.dropped_bytes
                        << " bytes past offset " << replay.valid_bytes;
    }
    replay_records = std::move(replay.records);
  }
  // Open() truncates the torn tail, so the next append extends exactly
  // the prefix that was replayed above.
  KPEF_ASSIGN_OR_RETURN(
      coordinator->wal_,
      WalWriter::Open(coordinator->options_.wal_path, fingerprint));
  coordinator->stats_.wal_bytes = coordinator->wal_.DurableBytes();

  {
    std::lock_guard<std::mutex> lock(coordinator->mutex_);
    size_t replayed = 0;
    for (const std::vector<uint8_t>& record : replay_records) {
      StatusOr<IngestBatch> batch = ParseBatch(record);
      if (!batch.ok()) {
        // CRC-valid but unparseable means a writer bug, not disk rot;
        // skip the record rather than refuse to serve.
        KPEF_LOG(Error) << "skipping unparseable WAL record: "
                        << batch.status().ToString();
        continue;
      }
      KPEF_ASSIGN_OR_RETURN(
          const IngestApplyResult result,
          coordinator->ApplyLocked(batch.value(), /*log_to_wal=*/false,
                                   /*publish=*/false));
      replayed += result.applied;
    }
    coordinator->stats_.replayed_records = replayed;
    if (replayed > 0) {
      KPEF_RETURN_IF_ERROR(coordinator->PublishSnapshot().status());
      KPEF_LOG(Info) << "WAL replay: " << replayed << " records over "
                     << replay_records.size() << " batches from "
                     << coordinator->options_.wal_path;
    }
  }
  return coordinator;
}

Status IngestCoordinator::InitStaging(EngineGroup* group) {
  const std::shared_ptr<const EngineGroup::Generation> gen = group->Snapshot();
  if (gen == nullptr || gen->engine == nullptr) {
    return Status::FailedPrecondition("ingest needs a loaded generation");
  }
  const ExpertFindingEngine& engine = *gen->engine;
  base_artifact_dir_ = gen->artifact_dir;
  dataset_ = std::make_shared<Dataset>(engine.dataset());
  corpus_ = std::make_shared<Corpus>(engine.corpus());
  encoder_ = engine.shared_encoder();
  embeddings_ = engine.embeddings();
  if (engine.index() != nullptr) {
    index_ = std::make_unique<PGIndex>(*engine.index());
  }

  const HeteroGraph& graph = dataset_->graph;
  const auto fill = [&graph](NodeTypeId type,
                             std::unordered_map<std::string, NodeId>& map) {
    for (const NodeId v : graph.NodesOfType(type)) {
      map.emplace(graph.Label(v), v);
    }
  };
  fill(dataset_->ids.paper, paper_by_label_);
  fill(dataset_->ids.author, author_by_label_);
  fill(dataset_->ids.venue, venue_by_label_);
  fill(dataset_->ids.topic, topic_by_label_);
  return Status::OK();
}

StatusOr<IngestApplyResult> IngestCoordinator::Apply(
    const IngestBatch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ApplyLocked(batch, /*log_to_wal=*/true, /*publish=*/true);
}

StatusOr<IngestApplyResult> IngestCoordinator::ApplyLocked(
    const IngestBatch& batch, bool log_to_wal, bool publish) {
  Timer timer;
  // Validate the whole batch before logging or touching staging: a
  // logged record that cannot apply fails replay on every restart, and a
  // rejection midway would leave staging half-applied.
  for (const IngestPaper& paper : batch.papers) {
    if (paper.text.empty()) {
      return Status::InvalidArgument("ingest paper needs non-empty text");
    }
  }
  if (log_to_wal) {
    const std::vector<uint8_t> payload = SerializeBatch(batch);
    KPEF_RETURN_IF_ERROR(wal_.Append(payload));
    stats_.wal_bytes = wal_.DurableBytes();
  }

  IngestApplyResult result;
  Matrix new_rows(0, embeddings_.cols());
  for (const IngestPaper& paper : batch.papers) {
    KPEF_ASSIGN_OR_RETURN(const bool applied, ApplyPaper(paper, &new_rows));
    if (applied) {
      ++result.applied;
    } else {
      ++result.duplicates;
    }
  }

  if (index_ != nullptr && new_rows.rows() > 0) {
    KPEF_RETURN_IF_ERROR(index_->InsertBatch(new_rows, options_.insert));
  }

  stats_.records_applied += result.applied;
  stats_.duplicates_skipped += result.duplicates;
  ++stats_.batches_applied;
  KPEF_COUNTER_ADD(obs::kIngestRecords, result.applied);
  KPEF_COUNTER_ADD(obs::kIngestDuplicates, result.duplicates);
  KPEF_COUNTER_ADD(obs::kIngestBatches, 1);

  if (PendingDeltaEdges() > options_.merge_pending_edge_budget) {
    Timer merge_timer;
    CompactAll();
    result.merged = true;
    merged_since_publish_ = true;
    ++stats_.merges;
    KPEF_HISTOGRAM_OBSERVE(obs::kIngestMergeMs, merge_timer.ElapsedMillis());
  }
  stats_.pending_delta_edges = PendingDeltaEdges();

  if (publish) {
    KPEF_ASSIGN_OR_RETURN(result.generation, PublishSnapshot());
  }
  KPEF_HISTOGRAM_OBSERVE(obs::kIngestApplyMs, timer.ElapsedMillis());
  KPEF_GAUGE_SET(obs::kIngestWalBytes,
                 static_cast<double>(stats_.wal_bytes));
  KPEF_GAUGE_SET(obs::kIngestPendingDeltaEdges,
                 static_cast<double>(stats_.pending_delta_edges));
  return result;
}

StatusOr<bool> IngestCoordinator::ApplyPaper(const IngestPaper& paper,
                                             Matrix* new_rows) {
  if (paper_by_label_.find(paper.text) != paper_by_label_.end()) {
    return false;
  }
  HeteroGraph& graph = dataset_->graph;
  const AcademicSchema& ids = dataset_->ids;

  const NodeId paper_node = graph.AppendNode(ids.paper, paper.text);
  paper_by_label_.emplace(paper.text, paper_node);
  const size_t paper_local = graph.LocalIndex(paper_node);

  // Corpus doc id must track paper LocalIndex (the row-alignment
  // invariant every ranking/retrieval stage assumes).
  const size_t doc = corpus_->AddDocumentFrozen(paper.text);
  KPEF_CHECK(doc == paper_local)
      << "corpus/paper alignment broken: doc " << doc << " vs paper "
      << paper_local;
  const std::vector<float> embedding =
      encoder_->Encode(corpus_->Document(doc));
  embeddings_.AppendRow(embedding);
  new_rows->AppendRow(embedding);

  // Write edges in author-rank order (Eq. 5's Zipf weights read the
  // adjacency order), duplicates within the paper dropped.
  std::unordered_set<std::string> seen;
  std::vector<NodeId> author_nodes;
  for (const std::string& label : paper.authors) {
    if (label.empty() || !seen.insert(label).second) continue;
    NodeId author;
    const auto it = author_by_label_.find(label);
    if (it == author_by_label_.end()) {
      author = graph.AppendNode(ids.author, label);
      author_by_label_.emplace(label, author);
      dataset_->author_primary_topic.push_back(0);
    } else {
      author = it->second;
    }
    KPEF_RETURN_IF_ERROR(graph.AppendEdge(ids.write, author, paper_node));
    author_nodes.push_back(author);
  }

  if (!paper.venue.empty()) {
    NodeId venue;
    const auto it = venue_by_label_.find(paper.venue);
    if (it == venue_by_label_.end()) {
      venue = graph.AppendNode(ids.venue, paper.venue);
      venue_by_label_.emplace(paper.venue, venue);
    } else {
      venue = it->second;
    }
    KPEF_RETURN_IF_ERROR(graph.AppendEdge(ids.publish, paper_node, venue));
  }

  // Topics; the first Mention neighbor defines the primary topic, the
  // same derivation DatasetFromGraph applies to offline graphs.
  int32_t primary_topic = 0;
  bool first_topic = true;
  seen.clear();
  for (const std::string& label : paper.topics) {
    if (label.empty() || !seen.insert(label).second) continue;
    NodeId topic;
    const auto it = topic_by_label_.find(label);
    if (it == topic_by_label_.end()) {
      topic = graph.AppendNode(ids.topic, label);
      topic_by_label_.emplace(label, topic);
    } else {
      topic = it->second;
    }
    KPEF_RETURN_IF_ERROR(graph.AppendEdge(ids.mention, paper_node, topic));
    if (first_topic) {
      primary_topic = static_cast<int32_t>(graph.LocalIndex(topic));
      first_topic = false;
    }
  }
  dataset_->paper_primary_topic.push_back(primary_topic);

  // An author whose first paper this is inherits its primary topic
  // (DatasetFromGraph's first-written-paper rule).
  for (const NodeId author : author_nodes) {
    if (graph.NeighborSegments(author, ids.write).size() == 1) {
      dataset_->author_primary_topic[graph.LocalIndex(author)] =
          primary_topic;
    }
  }

  // Citations resolve by target text; unknown or self targets skip.
  seen.clear();
  for (const std::string& target_text : paper.cites) {
    if (!seen.insert(target_text).second) continue;
    const auto it = paper_by_label_.find(target_text);
    if (it == paper_by_label_.end() || it->second == paper_node) continue;
    KPEF_RETURN_IF_ERROR(graph.AppendEdge(ids.cite, paper_node, it->second));
  }

  return true;
}

size_t IngestCoordinator::PendingDeltaEdges() const {
  size_t pending = dataset_->graph.PendingDeltaEdges();
  if (index_ != nullptr) pending += index_->PendingDeltaEdges();
  return pending;
}

void IngestCoordinator::CompactAll() {
  dataset_->graph.CompactDeltas();
  if (index_ != nullptr) index_->CompactDelta();
}

StatusOr<uint64_t> IngestCoordinator::PublishSnapshot() {
  Timer timer;
  // Every copy below is O(batch): the appended arrays share their
  // prefix with staging, the base CSRs and the encoder are shared
  // immutable, and only the bounded delta overlays are copied.
  auto dataset = std::make_shared<Dataset>(*dataset_);
  dataset->config.num_papers = dataset->graph.NumNodesOfType(dataset->ids.paper);
  dataset->config.num_authors =
      dataset->graph.NumNodesOfType(dataset->ids.author);
  dataset->config.num_venues = dataset->graph.NumNodesOfType(dataset->ids.venue);
  dataset->config.num_topics = dataset->graph.NumNodesOfType(dataset->ids.topic);
  auto corpus = std::make_shared<Corpus>(*corpus_);
  std::unique_ptr<PGIndex> index;
  if (index_ != nullptr) index = std::make_unique<PGIndex>(*index_);

  KPEF_ASSIGN_OR_RETURN(
      std::unique_ptr<ExpertFindingEngine> engine,
      ExpertFindingEngine::FromParts(dataset.get(), corpus.get(), config_,
                                     encoder_, embeddings_, std::move(index),
                                     base_artifact_dir_));
  auto generation = std::make_shared<EngineGroup::Generation>();
  generation->artifact_dir = base_artifact_dir_;
  generation->owned_dataset = dataset;
  generation->owned_corpus = corpus;
  generation->engine = std::move(engine);
  generation->load_seconds = timer.ElapsedSeconds();
  KPEF_ASSIGN_OR_RETURN(const uint64_t id,
                        group_->PublishExternal(std::move(generation)));
  if (merged_since_publish_) {
    stats_.last_merge_generation = id;
    merged_since_publish_ = false;
  }
  stats_.last_publish_generation = id;
  KPEF_HISTOGRAM_OBSERVE(obs::kIngestPublishMs, timer.ElapsedMillis());
  return id;
}

IngestStats IngestCoordinator::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace kpef
