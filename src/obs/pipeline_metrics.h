// Canonical metric names emitted by the pipeline, in one place so
// producers (src/*), consumers (CLI, benches), and tests agree, plus a
// warm-up that pre-registers them all — a run that exercised only part
// of the pipeline still exports the full schema (untouched instruments
// read zero).

#ifndef KPEF_OBS_PIPELINE_METRICS_H_
#define KPEF_OBS_PIPELINE_METRICS_H_

#include <string>

namespace kpef::obs {

// --- (k, P)-core search (Algorithm 1, §III-A).
inline constexpr char kKpcoreSearchesTotal[] = "kpcore.searches_total";
/// Candidate papers polled from the expansion queue.
inline constexpr char kKpcoreNodesVisited[] = "kpcore.nodes_visited";
/// Sub-k papers whose expansion Theorem 1 skipped.
inline constexpr char kKpcoreNodesPruned[] = "kpcore.nodes_pruned";
inline constexpr char kKpcoreEdgesScanned[] = "kpcore.edges_scanned";
/// Histogram: size of the delete queue D when peeling starts.
inline constexpr char kKpcoreDeleteQueueSize[] = "kpcore.delete_queue_size";

// --- Meta-path CSR projections (§III-A materialization).
inline constexpr char kProjectionBuildsTotal[] = "projection.builds_total";
/// Directed adjacency entries materialized across all builds.
inline constexpr char kProjectionEdges[] = "projection.edges";
/// Histogram: wall-clock per projection build (count + fill), ms.
inline constexpr char kProjectionBuildMs[] = "projection.build_ms";

// --- Training-data sampling (§III-B).
inline constexpr char kSamplingSeedsTotal[] = "sampling.seeds_total";
inline constexpr char kSamplingTriplesTotal[] = "sampling.triples_total";
inline constexpr char kSamplingNearNegativesTotal[] =
    "sampling.near_negatives_total";
inline constexpr char kSamplingRandomNegativesTotal[] =
    "sampling.random_negatives_total";
/// Seed papers processed by the parallel seed loop (0 when Generate ran
/// sequentially — single-thread pool or explicit num_threads = 1).
inline constexpr char kSamplingSeedsParallel[] = "sampling.seeds_parallel";

// --- Triplet fine-tuning (§III-C).
inline constexpr char kTrainerEpochsTotal[] = "trainer.epochs_total";
/// Gauge: mean triplet loss of the most recent epoch.
inline constexpr char kTrainerEpochLoss[] = "trainer.epoch_loss";
/// Gauge: training throughput of the most recent Train() call.
inline constexpr char kTrainerTriplesPerSec[] = "trainer.triples_per_sec";
/// Gauge: fraction of margin-active triples in the final epoch of the
/// most recent Train() call.
inline constexpr char kTrainerActiveTriples[] = "trainer.active_triples";
/// Gauge: worker threads the most recent Train() call used.
inline constexpr char kTrainerWorkers[] = "trainer.workers";
/// Gauge: wall seconds the most recent Train() call spent in the
/// deterministic schedule's per-batch merge+Adam fan-out.
inline constexpr char kTrainerMergeSeconds[] = "trainer.merge_seconds";

// --- PG-Index build (Algorithm 2, §IV-A).
inline constexpr char kPgindexBuildsTotal[] = "pgindex.builds_total";
inline constexpr char kPgindexNndescentIterations[] =
    "pgindex.nndescent_iterations";
inline constexpr char kPgindexBuildDistanceComputations[] =
    "pgindex.build_distance_computations";

// --- PG-Index greedy search (§IV-B).
inline constexpr char kPgindexSearchesTotal[] = "pgindex.searches_total";
inline constexpr char kPgindexDistanceComputations[] =
    "pgindex.distance_computations";
/// SQ8 asymmetric distance evaluations (quantized traversal).
inline constexpr char kPgindexSq8DistanceComputations[] =
    "pgindex.sq8_distance_computations";
/// Candidates exact-reranked in fp32 after the SQ8 traversal.
inline constexpr char kPgindexRerankCandidates[] =
    "pgindex.rerank_candidates";
/// Histogram: adjacency expansions per search.
inline constexpr char kPgindexSearchHops[] = "pgindex.search_hops";
/// Histogram: result-pool occupancy when the search terminated.
inline constexpr char kPgindexCandidatePoolOccupancy[] =
    "pgindex.candidate_pool_occupancy";

// --- TA top-n ranking (§IV-C).
inline constexpr char kTaQueriesTotal[] = "ta.queries_total";
inline constexpr char kTaEntriesAccessed[] = "ta.entries_accessed";
inline constexpr char kTaEarlyTerminationTotal[] =
    "ta.early_termination_total";
/// Histogram: sorted-access rounds (depth reached) per TA run.
inline constexpr char kTaRounds[] = "ta.rounds";
inline constexpr char kRankingFullScansTotal[] = "ranking.full_scans_total";
inline constexpr char kRankingFullScanEntriesAccessed[] =
    "ranking.full_scan_entries_accessed";

// --- Shared executor (common/thread_pool.h).
/// Tasks skipped because their TaskGroup was cancelled (first task
/// exception, or an explicit Cancel()).
inline constexpr char kPoolTasksCancelled[] = "pool.tasks_cancelled";
/// Queued tasks a TaskGroup::Wait() ran on the waiting thread instead of
/// blocking (the "helping" joins that make nested ParallelFor safe).
inline constexpr char kPoolWaitHelpRuns[] = "pool.wait_help_runs";

// --- Engine facade.
inline constexpr char kEngineBuildsTotal[] = "engine.builds_total";
inline constexpr char kEngineQueriesTotal[] = "engine.queries_total";
/// Histogram: end-to-end FindExperts latency, milliseconds.
inline constexpr char kEngineQueryLatencyMs[] = "engine.query_latency_ms";
/// FindExpertsBatch calls (queries also count in queries_total).
inline constexpr char kEngineBatchQueriesTotal[] =
    "engine.batch_queries_total";
/// Histogram: queries per FindExpertsBatch call.
inline constexpr char kEngineBatchSize[] = "engine.batch_size";
/// Histogram: end-to-end FindExpertsBatch latency, milliseconds.
inline constexpr char kEngineBatchLatencyMs[] = "engine.batch_latency_ms";
/// Queries whose batch deadline fired before they completed (their
/// QueryStats carry deadline_exceeded = true and empty results).
inline constexpr char kEngineQueriesDeadlineExceeded[] =
    "engine.queries_deadline_exceeded";

// --- Online serving (src/serve/).
/// HTTP requests accepted by the service router (all endpoints).
inline constexpr char kServeRequests[] = "serve.requests";
/// Requests shed by admission control (bounded queue full -> 429).
inline constexpr char kServeShed[] = "serve.shed";
/// Requests that missed their per-request deadline (-> 504).
inline constexpr char kServeDeadlineExceeded[] = "serve.deadline_exceeded";
/// Malformed requests rejected by the HTTP or JSON layer (-> 400).
inline constexpr char kServeBadRequests[] = "serve.bad_requests";
/// Micro-batches dispatched to the engine.
inline constexpr char kServeBatches[] = "serve.batches";
/// Histogram: queries coalesced per dispatched micro-batch.
inline constexpr char kServeBatchSize[] = "serve.batch_size";
/// Histogram: time a query waited in the batcher queue, milliseconds.
inline constexpr char kServeQueueWaitMs[] = "serve.queue_wait_ms";
/// Histogram: end-to-end service latency (parse -> response), ms.
inline constexpr char kServeE2eMs[] = "serve.e2e_ms";
/// Requests that crossed a slow threshold (tail-kept trace + ring entry).
inline constexpr char kServeSlowQueries[] = "serve.slow_queries";
/// Request traces opened (mode sampled or always-on).
inline constexpr char kServeTracesStarted[] = "serve.traces_started";
/// Request traces retained for /v1/debug/trace (head + tail + always-on).
inline constexpr char kServeTracesRetained[] = "serve.traces_retained";
/// find_experts requests whose n exceeded ServiceConfig::max_top_n and
/// was clamped to it.
inline constexpr char kServeTopNClamped[] = "serve.top_n_clamped";
/// Successful /v1/admin/reload generation swaps.
inline constexpr char kServeReloads[] = "serve.reloads_total";
/// /v1/admin/reload attempts that failed (old generation kept serving).
inline constexpr char kServeReloadFailures[] = "serve.reload_failures_total";

// --- EngineGroup generation gauges (sampled on /metrics scrape).
/// Gauge: artifact generation currently serving (bumps on hot swap).
inline constexpr char kServeGeneration[] = "serve.generation";
/// Gauge: queries answered by the serving generation since publish.
inline constexpr char kServeGenerationQueries[] =
    "serve.generation_queries";
/// Gauge: mean engine-batch latency of the serving generation, ms.
inline constexpr char kServeGenerationLatencyMsMean[] =
    "serve.generation_latency_ms_mean";
/// Gauge: wall-clock seconds the serving generation took to load.
inline constexpr char kServeGenerationLoadSeconds[] =
    "serve.generation_load_seconds";

// --- Streaming ingestion (src/ingest; DESIGN.md §16).
/// Ingest records (papers) applied to the staging state.
inline constexpr char kIngestRecords[] = "ingest.records";
/// Ingest batches applied (one WAL record each).
inline constexpr char kIngestBatches[] = "ingest.batches";
/// Records skipped as duplicates (same paper label already present).
inline constexpr char kIngestDuplicates[] = "ingest.duplicates";
/// Ingest batches rejected before any state change (bad schema, ...).
inline constexpr char kIngestRejected[] = "ingest.rejected";
/// Gauge: byte offset of the last durable WAL record.
inline constexpr char kIngestWalBytes[] = "ingest.wal_bytes";
/// Gauge: graph + index delta edges awaiting a merge into the base CSRs.
inline constexpr char kIngestPendingDeltaEdges[] =
    "ingest.pending_delta_edges";
/// Histogram: wall-clock milliseconds per delta merge (compaction).
inline constexpr char kIngestMergeMs[] = "ingest.merge_ms";
/// Histogram: wall-clock milliseconds per applied ingest batch.
inline constexpr char kIngestApplyMs[] = "ingest.apply_ms";

// --- Process self-metrics (gauges, sampled on /metrics scrape).
inline constexpr char kProcessRssBytes[] = "process.rss_bytes";
inline constexpr char kProcessOpenFds[] = "process.open_fds";
inline constexpr char kProcessUptimeSeconds[] = "process.uptime_seconds";
/// Gauge: tasks queued on the serving pool at scrape time.
inline constexpr char kPoolQueueDepth[] = "pool.queue_depth";
/// Gauge: pool workers inside a task body at scrape time.
inline constexpr char kPoolActiveWorkers[] = "pool.active_workers";
inline constexpr char kPoolThreads[] = "pool.threads";

/// Registers every canonical metric above (no-op values). Call before
/// exporting so dumps always contain the full schema. Latency-valued
/// serve/engine histograms are registered with LatencyHistogramBounds(),
/// so calling this before the first observation also fixes their bucket
/// layout (the creating registration wins).
void WarmPipelineMetrics();

/// One-line HELP text for a canonical metric name (nullptr if unknown);
/// the Prometheus exporter emits it as a `# HELP` line.
const char* PipelineMetricHelp(const std::string& name);

}  // namespace kpef::obs

#endif  // KPEF_OBS_PIPELINE_METRICS_H_
