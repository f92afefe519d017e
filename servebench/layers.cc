#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "ann/brute_force.h"
#include "ann/pg_index.h"
#include "common/thread_pool.h"
#include "ingest/wal.h"
#include "ranking/top_n_finder.h"

namespace servebench {

namespace {

using kpef::ExpertScore;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Mean(double sum, size_t count) {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

bool SameExperts(const std::vector<ExpertScore>& a,
                 const std::vector<ExpertScore>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].author != b[i].author ||
        std::abs(a[i].score - b[i].score) > 1e-12 * std::abs(b[i].score)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameAnswer(const std::vector<ExpertScore>& a,
                const std::vector<ExpertScore>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].author != b[i].author || a[i].score != b[i].score) return false;
  }
  return true;
}

std::unique_ptr<kpef::EngineGroup> LoadServingGroup(
    const kpef::Dataset& dataset, const kpef::Corpus& corpus,
    const std::string& model_dir, size_t num_shards) {
  auto group = kpef::EngineGroup::Load(
      &dataset, &corpus, ServingOptions(dataset, num_shards), model_dir);
  if (!group.ok()) throw std::runtime_error(group.status().ToString());
  return std::move(group).value();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) +
          upper) /
         2.0;
}

kpef::EngineGroup::Options ServingOptions(const kpef::Dataset& dataset,
                                          size_t num_shards) {
  kpef::EngineGroup::Options options;
  options.engine.top_m = std::max<size_t>(50, dataset.Papers().size() / 10);
  options.engine.pg_index.rerank_factor = 2.0;
  options.num_shards = num_shards;
  return options;
}

size_t ReplayQueryLayers(const QueryStream& stream,
                         const kpef::Dataset& dataset,
                         const kpef::Corpus& corpus,
                         const std::string& model_dir, size_t threads,
                         size_t top_n, SpanLog* spans, Metrics* metrics) {
  kpef::ThreadPool pool(threads);
  const auto batch_texts = [&](const std::vector<size_t>& batch) {
    std::vector<std::string> texts;
    texts.reserve(batch.size());
    for (const size_t q : batch) texts.push_back(stream.texts[q]);
    return texts;
  };

  // --- core: the whole engine on the recorded batch compositions.
  std::vector<std::vector<ExpertScore>> answers(stream.texts.size());
  std::unique_ptr<kpef::EngineGroup> single;
  static constexpr struct {
    size_t shards;
    const char* metric;
  } kShardings[] = {{1, "core.batch_ms"},
                    {2, "core.batch_ms.shards2"},
                    {4, "core.batch_ms.shards4"}};
  for (const auto& sharding : kShardings) {
    auto group =
        LoadServingGroup(dataset, corpus, model_dir, sharding.shards);
    if (!stream.batches.empty()) {
      group->FindExpertsBatch(batch_texts(stream.batches[0]), top_n, nullptr,
                              &pool);  // warm-up
    }
    std::vector<double> ms;
    for (const std::vector<size_t>& batch : stream.batches) {
      const std::vector<std::string> texts = batch_texts(batch);
      ScopedSpan span(spans, "core.batch", -1, stream.request_ids[batch[0]],
                      /*alt=*/true);
      const Clock::time_point start = Clock::now();
      auto result = group->FindExpertsBatch(texts, top_n, nullptr, &pool);
      ms.push_back(MsSince(start));
      if (sharding.shards == 1) {
        for (size_t i = 0; i < batch.size(); ++i) {
          answers[batch[i]] = std::move(result[i]);
        }
      }
    }
    metrics->push_back({sharding.metric, Median(ms), "ms"});
    if (sharding.shards == 1) single = std::move(group);
  }

  // --- The same batches, one layer call at a time.
  const auto generation = single->Snapshot();
  const kpef::ExpertFindingEngine& engine = *generation->engine;
  const kpef::PGIndex* index = engine.index();
  if (index == nullptr) throw std::runtime_error("serving engine has no index");
  kpef::PGIndex::SearchParams params;
  params.m = engine.config().top_m;
  params.ef = engine.config().search_ef == 0 ? params.m
                                             : engine.config().search_ef;
  const std::vector<kpef::NodeId>& papers = dataset.Papers();
  const auto ranked_lists = [&](const std::vector<kpef::Neighbor>& found) {
    std::vector<kpef::NodeId> top_papers;
    top_papers.reserve(found.size());
    for (const kpef::Neighbor& nb : found) top_papers.push_back(papers[nb.id]);
    return kpef::BuildRankedLists(dataset.graph, dataset.ids.write, top_papers,
                                  engine.config().contribution_weighting);
  };

  struct PassResult {
    double seconds = 0.0;
    std::vector<double> encode_ms, search_ms, lists_ms, ta_ms;
    std::vector<std::vector<kpef::Neighbor>> found;
    std::vector<kpef::PGIndex::SearchStats> search_stats;
    std::vector<kpef::TopNStats> ta_stats;
    size_t mismatches = 0;
  };
  std::vector<kpef::Matrix> encoded(stream.batches.size());
  // One serving-path pass: encode -> SearchBatch -> lists -> TA. Every
  // pass takes the same timings; only the span log differs, so the
  // traced-minus-untraced wall time is the cost of the spans.
  const auto serving_pass = [&](SpanLog* log) {
    PassResult r;
    r.found.resize(stream.texts.size());
    r.search_stats.resize(stream.texts.size());
    r.ta_stats.resize(stream.texts.size());
    const Clock::time_point pass_start = Clock::now();
    for (size_t b = 0; b < stream.batches.size(); ++b) {
      const std::vector<size_t>& batch = stream.batches[b];
      ScopedSpan root(log, "replay.batch", -1, stream.request_ids[batch[0]]);
      kpef::Matrix queries(batch.size(), engine.encoder().dim());
      for (size_t i = 0; i < batch.size(); ++i) {
        ScopedSpan span(log, "embed.encode", root.id(),
                        stream.request_ids[batch[i]]);
        const Clock::time_point start = Clock::now();
        const std::vector<float> v = engine.encoder().Encode(
            engine.corpus().EncodeQuery(stream.texts[batch[i]]));
        std::copy(v.begin(), v.end(), queries.Row(i).begin());
        r.encode_ms.push_back(MsSince(start));
      }
      std::vector<kpef::PGIndex::SearchStats> stats;
      std::vector<std::vector<kpef::Neighbor>> found;
      {
        ScopedSpan span(log, "ann.search", root.id(),
                        stream.request_ids[batch[0]]);
        const Clock::time_point start = Clock::now();
        found = index->SearchBatch(queries, params, &stats, &pool);
        r.search_ms.push_back(MsSince(start));
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        const size_t q = batch[i];
        kpef::RankedLists lists;
        {
          ScopedSpan span(log, "ranking.lists", root.id(),
                          stream.request_ids[q]);
          const Clock::time_point start = Clock::now();
          lists = ranked_lists(found[i]);
          r.lists_ms.push_back(MsSince(start));
        }
        std::vector<ExpertScore> top;
        {
          ScopedSpan span(log, "ranking.ta", root.id(), stream.request_ids[q]);
          const Clock::time_point start = Clock::now();
          top = kpef::ThresholdTopN(lists, top_n, &r.ta_stats[q]);
          r.ta_ms.push_back(MsSince(start));
        }
        if (!SameAnswer(top, answers[q])) ++r.mismatches;
        r.found[q] = std::move(found[i]);
        r.search_stats[q] = stats[i];
      }
      if (encoded[b].rows() == 0) encoded[b] = std::move(queries);
    }
    r.seconds =
        std::chrono::duration<double>(Clock::now() - pass_start).count();
    return r;
  };
  SpanLog untraced(false, Clock::now());
  serving_pass(&untraced);  // warm-up
  const double untraced_a = serving_pass(&untraced).seconds;
  const PassResult traced = serving_pass(spans);
  const double untraced_b = serving_pass(&untraced).seconds;

  // --- Alternative paths on the same inputs.
  std::vector<double> exact_ms, fullscan_ms;
  double recall_sum = 0.0;
  uint64_t ta_entries = 0, fullscan_entries = 0;
  size_t mismatches = traced.mismatches;
  kpef::PGIndex::SearchParams exact_params = params;
  exact_params.force_exact = true;
  for (size_t b = 0; b < stream.batches.size(); ++b) {
    const std::vector<size_t>& batch = stream.batches[b];
    {
      ScopedSpan span(spans, "ann.exact_search", -1,
                      stream.request_ids[batch[0]], /*alt=*/true);
      const Clock::time_point start = Clock::now();
      index->SearchBatch(encoded[b], exact_params, nullptr, &pool);
      exact_ms.push_back(MsSince(start));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t q = batch[i];
      {
        ScopedSpan span(spans, "ann.brute", -1, stream.request_ids[q],
                        /*alt=*/true);
        const auto truth =
            kpef::BruteForceSearch(engine.embeddings(), encoded[b].Row(i),
                                   params.m);
        recall_sum += kpef::ComputeRecall(traced.found[q], truth);
      }
      const kpef::RankedLists lists = ranked_lists(traced.found[q]);
      kpef::TopNStats full_stats;
      std::vector<ExpertScore> full;
      {
        ScopedSpan span(spans, "ranking.fullscan", -1, stream.request_ids[q],
                        /*alt=*/true);
        const Clock::time_point start = Clock::now();
        full = kpef::FullScanTopN(lists, top_n, &full_stats);
        fullscan_ms.push_back(MsSince(start));
      }
      // Full scan sums each expert's contributions in another order than
      // TA, so scores may differ in the last bits; the experts may not.
      if (!SameExperts(full, answers[q])) ++mismatches;
      ta_entries += traced.ta_stats[q].entries_accessed;
      fullscan_entries += full_stats.entries_accessed;
    }
  }

  const size_t nq = stream.texts.size();
  double sq8 = 0.0, fp32 = 0.0, hops = 0.0;
  for (const auto& s : traced.search_stats) {
    sq8 += static_cast<double>(s.sq8_distance_computations);
    fp32 += static_cast<double>(s.distance_computations);
    hops += static_cast<double>(s.hops);
  }
  metrics->push_back({"embed.encode_ms", Median(traced.encode_ms), "ms"});
  metrics->push_back({"ann.search_ms", Median(traced.search_ms), "ms"});
  metrics->push_back({"ann.exact_search_ms", Median(exact_ms), "ms"});
  metrics->push_back({"ann.sq8_dists", Mean(sq8, nq), "count"});
  metrics->push_back({"ann.fp32_dists", Mean(fp32, nq), "count"});
  metrics->push_back({"ann.hops", Mean(hops, nq), "count"});
  metrics->push_back({"ann.recall_at_m", Mean(recall_sum, nq), "ratio"});
  metrics->push_back({"ranking.lists_ms", Median(traced.lists_ms), "ms"});
  metrics->push_back({"ranking.ta_ms", Median(traced.ta_ms), "ms"});
  metrics->push_back({"ranking.fullscan_ms", Median(fullscan_ms), "ms"});
  metrics->push_back(
      {"ranking.entries", Mean(static_cast<double>(ta_entries), nq), "count"});
  metrics->push_back(
      {"ranking.ta_early_stop_ratio",
       fullscan_entries == 0 ? 0.0
                             : static_cast<double>(ta_entries) /
                                   static_cast<double>(fullscan_entries),
       "ratio"});
  metrics->push_back(
      {"trace.overhead_ms",
       Mean((traced.seconds - (untraced_a + untraced_b) / 2.0) * 1e3, nq),
       "ms"});
  return mismatches;
}

kpef::StatusOr<IngestReplay> ReplayIngest(
    const kpef::Dataset& base, const kpef::Corpus& corpus,
    const std::string& model_dir, const std::string& wal_path,
    const std::vector<kpef::IngestBatch>& batches, SpanLog* spans,
    Metrics* metrics) {
  IngestReplay out;
  const kpef::EngineGroup::Options options = ServingOptions(base, 1);
  out.group = LoadServingGroup(base, corpus, model_dir, 1);
  kpef::IngestOptions ingest_options;
  ingest_options.wal_path = wal_path;
  KPEF_ASSIGN_OR_RETURN(out.coordinator,
                        kpef::IngestCoordinator::Create(
                            out.group.get(), options.engine, ingest_options));
  std::vector<double> apply_ms;
  for (size_t b = 0; b < batches.size(); ++b) {
    ScopedSpan span(spans, "ingest.apply", -1, "i" + std::to_string(b));
    const Clock::time_point start = Clock::now();
    KPEF_ASSIGN_OR_RETURN(kpef::IngestApplyResult applied,
                          out.coordinator->Apply(batches[b]));
    apply_ms.push_back(MsSince(start));
    out.applied += applied.applied;
  }
  if (metrics == nullptr) return out;

  // WalWriter::Append of the same payloads, into a WAL of its own.
  const kpef::WalFingerprint fingerprint{base.graph.NumNodes(),
                                         base.graph.NumEdges()};
  KPEF_ASSIGN_OR_RETURN(kpef::WalWriter wal,
                        kpef::WalWriter::Open(wal_path + ".append",
                                              fingerprint));
  std::vector<double> wal_ms;
  for (size_t b = 0; b < batches.size(); ++b) {
    const std::vector<uint8_t> payload = kpef::SerializeBatch(batches[b]);
    ScopedSpan span(spans, "ingest.wal_append", -1, "i" + std::to_string(b),
                    /*alt=*/true);
    const Clock::time_point start = Clock::now();
    KPEF_RETURN_IF_ERROR(wal.Append(payload));
    wal_ms.push_back(MsSince(start));
  }
  wal.Close();

  // PGIndex::InsertBatch of the rows the coordinator appended.
  KPEF_ASSIGN_OR_RETURN(kpef::PGIndex index,
                        kpef::PGIndex::Load(model_dir + "/pgindex.bin"));
  const kpef::Matrix& grown = out.group->Snapshot()->engine->embeddings();
  size_t row = index.NumPoints();
  std::vector<double> insert_ms;
  for (size_t b = 0; b < batches.size(); ++b) {
    const size_t count = batches[b].papers.size();
    if (row + count > grown.rows()) {
      return kpef::Status::Internal("ingested rows missing from snapshot");
    }
    kpef::Matrix chunk(count, grown.cols());
    for (size_t i = 0; i < count; ++i) {
      const auto src = grown.Row(row + i);
      std::copy(src.begin(), src.end(), chunk.Row(i).begin());
    }
    row += count;
    ScopedSpan span(spans, "ingest.index_insert", -1, "i" + std::to_string(b),
                    /*alt=*/true);
    const Clock::time_point start = Clock::now();
    KPEF_RETURN_IF_ERROR(index.InsertBatch(chunk, ingest_options.insert));
    insert_ms.push_back(MsSince(start));
  }

  const kpef::IngestStats stats = out.coordinator->Stats();
  metrics->push_back({"ingest.apply_ms", Median(apply_ms), "ms"});
  metrics->push_back({"ingest.wal_append_ms", Median(wal_ms), "ms"});
  metrics->push_back({"ingest.index_insert_ms", Median(insert_ms), "ms"});
  metrics->push_back(
      {"ingest.merges", static_cast<double>(stats.merges), "count"});
  metrics->push_back({"ingest.pending_delta_edges",
                      static_cast<double>(stats.pending_delta_edges), "count"});
  metrics->push_back({"ingest.generations",
                      static_cast<double>(out.group->generation() - 1),
                      "count"});
  return out;
}

}  // namespace servebench
