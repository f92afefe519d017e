// The pipeline's instruments, one table row each. Producers (src/*),
// consumers (CLI, benches) and tests name an instrument by its constant;
// WarmPipelineMetrics() registers every row, and the Prometheus exporter
// reads each row's help text and quantile flag. Adding an instrument is
// one row here plus its call site.

#ifndef KPEF_OBS_PIPELINE_METRICS_H_
#define KPEF_OBS_PIPELINE_METRICS_H_

#include <string_view>

namespace kpef::obs {

enum class MetricKind {
  kCounter,
  kGauge,
  /// Milliseconds, registered with LatencyHistogramBounds() (sub-ms
  /// through 60 s) so tail quantiles resolve.
  kLatencyHistogram,
  /// Registered with the power-of-two DefaultHistogramBounds().
  kCountHistogram,
};

// X(constant, name, kind, quantiles, help). `quantiles` adds a
// <name>_quantile summary family (p50/p95/p99) to the Prometheus text;
// `help` is its `# HELP` line.
#define KPEF_PIPELINE_METRICS(X) \
  /* (k, P)-core search (Algorithm 1, §III-A). */ \
  X(kKpcoreSearchesTotal, "kpcore.searches_total", kCounter, false, \
    "(k, P)-core searches run.") \
  X(kKpcoreNodesVisited, "kpcore.nodes_visited", kCounter, false, \
    "Candidate papers polled from the (k, P)-core expansion queue.") \
  X(kKpcoreNodesPruned, "kpcore.nodes_pruned", kCounter, false, \
    "Sub-k papers whose expansion Theorem 1 skipped.") \
  X(kKpcoreEdgesScanned, "kpcore.edges_scanned", kCounter, false, \
    "P-neighbor adjacency entries scanned by (k, P)-core searches.") \
  X(kKpcoreDeleteQueueSize, "kpcore.delete_queue_size", kCountHistogram, \
    false, "Size of the delete queue D when (k, P)-core peeling starts.") \
  /* Meta-path CSR projections (§III-A materialization). */ \
  X(kProjectionBuildsTotal, "projection.builds_total", kCounter, false, \
    "Meta-path CSR projections built.") \
  X(kProjectionEdges, "projection.edges", kCounter, false, \
    "Directed adjacency entries materialized across all projection " \
    "builds.") \
  X(kProjectionBuildMs, "projection.build_ms", kLatencyHistogram, false, \
    "Wall-clock per projection build (count + fill), milliseconds.") \
  /* Training-data sampling (§III-B). */ \
  X(kSamplingSeedsTotal, "sampling.seeds_total", kCounter, false, \
    "Seed papers the training-data sampler processed.") \
  X(kSamplingTriplesTotal, "sampling.triples_total", kCounter, false, \
    "Training triples the sampler emitted.") \
  X(kSamplingNearNegativesTotal, "sampling.near_negatives_total", \
    kCounter, false, "Near negatives the sampler drew.") \
  X(kSamplingRandomNegativesTotal, "sampling.random_negatives_total", \
    kCounter, false, "Random negatives the sampler drew.") \
  X(kSamplingSeedsParallel, "sampling.seeds_parallel", kCounter, false, \
    "Seed papers processed by the parallel seed loop (0 when sampling " \
    "ran on one thread).") \
  /* Triplet fine-tuning (§III-C). */ \
  X(kTrainerEpochsTotal, "trainer.epochs_total", kCounter, false, \
    "Triplet fine-tuning epochs completed.") \
  X(kTrainerEpochLoss, "trainer.epoch_loss", kGauge, false, \
    "Mean triplet loss of the most recent training epoch.") \
  X(kTrainerTriplesPerSec, "trainer.triples_per_sec", kGauge, false, \
    "Training throughput of the most recent Train() call, triples per " \
    "second.") \
  X(kTrainerActiveTriples, "trainer.active_triples", kGauge, false, \
    "Fraction of margin-active triples in the final epoch of the most " \
    "recent Train() call.") \
  X(kTrainerWorkers, "trainer.workers", kGauge, false, \
    "Worker threads the most recent Train() call used.") \
  X(kTrainerMergeSeconds, "trainer.merge_seconds", kGauge, false, \
    "Seconds the most recent Train() call spent merging chunk gradients " \
    "and stepping Adam.") \
  /* PG-Index build (Algorithm 2, §IV-A). */ \
  X(kPgindexBuildsTotal, "pgindex.builds_total", kCounter, false, \
    "PG-Index builds.") \
  X(kPgindexNndescentIterations, "pgindex.nndescent_iterations", kCounter, \
    false, "NN-Descent iterations run by PG-Index builds.") \
  X(kPgindexBuildDistanceComputations, \
    "pgindex.build_distance_computations", kCounter, false, \
    "Distance evaluations spent building PG-Indexes.") \
  /* PG-Index greedy search (§IV-B). */ \
  X(kPgindexSearchesTotal, "pgindex.searches_total", kCounter, false, \
    "PG-Index greedy searches.") \
  X(kPgindexDistanceComputations, "pgindex.distance_computations", \
    kCounter, false, \
    "Full-precision distance evaluations in PG-Index searches.") \
  X(kPgindexSearchHops, "pgindex.search_hops", kCountHistogram, false, \
    "Adjacency expansions per PG-Index search.") \
  X(kPgindexCandidatePoolOccupancy, "pgindex.candidate_pool_occupancy", \
    kCountHistogram, false, \
    "Result-pool occupancy when a PG-Index search terminated.") \
  /* Expert ranking: TA top-n (§IV-C) and the serving full scan. */ \
  X(kTaQueriesTotal, "ta.queries_total", kCounter, false, \
    "Threshold Algorithm top-n runs.") \
  X(kTaEntriesAccessed, "ta.entries_accessed", kCounter, false, \
    "Sorted-list entries the Threshold Algorithm read.") \
  X(kTaEarlyTerminationTotal, "ta.early_termination_total", kCounter, \
    false, "Threshold Algorithm runs that stopped before exhausting their " \
    "lists.") \
  X(kTaRounds, "ta.rounds", kCountHistogram, false, \
    "Sorted-access rounds (depth reached) per Threshold Algorithm run.") \
  X(kRankingFullScansTotal, "ranking.full_scans_total", kCounter, false, \
    "Full-scan expert rankings (RankExperts).") \
  X(kRankingFullScanEntriesAccessed, "ranking.full_scan_entries_accessed", \
    kCounter, false, "Paper-author entries read by full-scan rankings.") \
  /* Shared executor (common/thread_pool.h). */ \
  X(kPoolTasksCancelled, "pool.tasks_cancelled", kCounter, false, \
    "Pool tasks skipped because an earlier task of their TaskGroup " \
    "threw.") \
  X(kPoolWaitHelpRuns, "pool.wait_help_runs", kCounter, false, \
    "Queued tasks a TaskGroup::Wait() ran on the waiting thread (helping " \
    "joins).") \
  /* Engine facade. */ \
  X(kEngineBuildsTotal, "engine.builds_total", kCounter, false, \
    "Engines built from a dataset.") \
  X(kEngineQueriesTotal, "engine.queries_total", kCounter, false, \
    "Queries answered by the engine facade.") \
  X(kEngineQueryLatencyMs, "engine.query_latency_ms", kLatencyHistogram, \
    false, "Per-query engine latency (encode, search and ranking), " \
    "milliseconds.") \
  X(kEngineBatchQueriesTotal, "engine.batch_queries_total", kCounter, \
    false, "FindExpertsBatch calls (their queries also count in " \
    "engine.queries_total).") \
  X(kEngineBatchSize, "engine.batch_size", kCountHistogram, false, \
    "Queries per FindExpertsBatch call.") \
  X(kEngineBatchLatencyMs, "engine.batch_latency_ms", kLatencyHistogram, \
    false, "End-to-end FindExpertsBatch latency, milliseconds.") \
  X(kEngineQueriesDeadlineExceeded, "engine.queries_deadline_exceeded", \
    kCounter, false, \
    "Queries whose deadline fired before they completed.") \
  /* Online serving (src/serve/). */ \
  X(kServeRequests, "serve.requests", kCounter, false, \
    "HTTP requests accepted by the service router (all endpoints).") \
  X(kServeShed, "serve.shed", kCounter, false, \
    "Requests shed by admission control (queue full, 429).") \
  X(kServeDeadlineExceeded, "serve.deadline_exceeded", kCounter, false, \
    "Requests that missed their per-request deadline (504).") \
  X(kServeBadRequests, "serve.bad_requests", kCounter, false, \
    "Malformed requests rejected by the HTTP or JSON layer (400).") \
  X(kServeBatches, "serve.batches", kCounter, false, \
    "Micro-batches dispatched to the engine.") \
  X(kServeBatchSize, "serve.batch_size", kCountHistogram, true, \
    "Queries coalesced per dispatched micro-batch.") \
  X(kServeQueueWaitMs, "serve.queue_wait_ms", kLatencyHistogram, true, \
    "Time a query waited in the batcher queue, milliseconds.") \
  X(kServeE2eMs, "serve.e2e_ms", kLatencyHistogram, true, \
    "End-to-end service latency (parse to response), milliseconds.") \
  X(kServeSlowQueries, "serve.slow_queries", kCounter, false, \
    "Requests that crossed a slow threshold (tail-kept trace and " \
    "slow-ring entry).") \
  X(kServeTracesStarted, "serve.traces_started", kCounter, false, \
    "Request traces opened.") \
  X(kServeTracesRetained, "serve.traces_retained", kCounter, false, \
    "Request traces retained for /v1/debug/trace (head, tail or " \
    "always-on).") \
  X(kServeTopNClamped, "serve.top_n_clamped", kCounter, false, \
    "find_experts requests whose n exceeded the service cap and was " \
    "clamped to it.") \
  X(kServeReloads, "serve.reloads_total", kCounter, false, \
    "Successful /v1/admin/reload generation swaps.") \
  X(kServeReloadFailures, "serve.reload_failures_total", kCounter, false, \
    "Reload attempts that failed; the old generation kept serving.") \
  /* EngineGroup generation gauges (sampled on /metrics scrape). */ \
  X(kServeGeneration, "serve.generation", kGauge, false, \
    "Artifact generation currently serving (bumps on hot swap).") \
  X(kServeGenerationQueries, "serve.generation_queries", kGauge, false, \
    "Queries answered by the serving generation since publish.") \
  X(kServeGenerationLatencyMsMean, "serve.generation_latency_ms_mean", \
    kGauge, false, \
    "Mean engine-batch latency of the serving generation, milliseconds.") \
  X(kServeGenerationLoadSeconds, "serve.generation_load_seconds", kGauge, \
    false, "Wall-clock seconds the serving generation took to load.") \
  /* Streaming ingestion (src/ingest; DESIGN.md §16). */ \
  X(kIngestRecords, "ingest.records", kCounter, false, \
    "Ingest records (papers) applied to the staging state.") \
  X(kIngestBatches, "ingest.batches", kCounter, false, \
    "Ingest batches applied (one WAL record each).") \
  X(kIngestDuplicates, "ingest.duplicates", kCounter, false, \
    "Ingest records skipped as duplicates of an existing paper label.") \
  X(kIngestRejected, "ingest.rejected", kCounter, false, \
    "Ingest batches rejected before any state change.") \
  X(kIngestWalBytes, "ingest.wal_bytes", kGauge, false, \
    "Byte offset of the last durable WAL record.") \
  X(kIngestPendingDeltaEdges, "ingest.pending_delta_edges", kGauge, false, \
    "Graph and index delta edges awaiting a merge into the base CSRs.") \
  X(kIngestMergeMs, "ingest.merge_ms", kLatencyHistogram, false, \
    "Wall-clock per delta merge (compaction), milliseconds.") \
  X(kIngestApplyMs, "ingest.apply_ms", kLatencyHistogram, false, \
    "Wall-clock per applied ingest batch, milliseconds.") \
  X(kIngestPublishMs, "ingest.publish_ms", kLatencyHistogram, false, \
    "Wall-clock per ingest generation publish, milliseconds.") \
  /* Process self-metrics (gauges, sampled on /metrics scrape). */ \
  X(kProcessRssBytes, "process.rss_bytes", kGauge, false, \
    "Resident set size, bytes (sampled on scrape).") \
  X(kProcessOpenFds, "process.open_fds", kGauge, false, \
    "Open file descriptors (sampled on scrape).") \
  X(kProcessUptimeSeconds, "process.uptime_seconds", kGauge, false, \
    "Process uptime, seconds.") \
  X(kPoolQueueDepth, "pool.queue_depth", kGauge, false, \
    "Tasks queued on the serving pool at scrape time.") \
  X(kPoolActiveWorkers, "pool.active_workers", kGauge, false, \
    "Serving-pool workers inside a task body at scrape time.") \
  X(kPoolThreads, "pool.threads", kGauge, false, \
    "Serving-pool worker threads.")

#define KPEF_PIPELINE_METRIC_NAME(id, name, kind, quantiles, help) \
  inline constexpr char id[] = name;
KPEF_PIPELINE_METRICS(KPEF_PIPELINE_METRIC_NAME)
#undef KPEF_PIPELINE_METRIC_NAME

struct PipelineMetric {
  const char* name;
  MetricKind kind;
  bool quantiles;
  const char* help;
};

#define KPEF_PIPELINE_METRIC_ROW(id, name, kind, quantiles, help) \
  {name, MetricKind::kind, quantiles, help},
inline constexpr PipelineMetric kPipelineMetrics[] = {
    KPEF_PIPELINE_METRICS(KPEF_PIPELINE_METRIC_ROW)};
#undef KPEF_PIPELINE_METRIC_ROW

/// The row named `name`; nullptr for an instrument outside the table.
const PipelineMetric* FindPipelineMetric(std::string_view name);

/// Registers every row (no-op values). Call before exporting so dumps
/// always contain the full schema; calling it before the first
/// observation also fixes each histogram's bucket layout (the creating
/// registration wins).
void WarmPipelineMetrics();

}  // namespace kpef::obs

#endif  // KPEF_OBS_PIPELINE_METRICS_H_
