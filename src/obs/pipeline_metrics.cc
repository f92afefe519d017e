#include "obs/pipeline_metrics.h"

#include <map>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kpef::obs {

namespace {

// Bridges ThreadPool's layering-free metric callouts into the registry.
// common/ cannot depend on obs/, so the pool exposes a hook and any
// binary that links kpef_obs gets the counters wired at static-init
// time (hook invocations only happen at runtime, after init completes).
void PoolMetricsHook(const char* counter, uint64_t delta) {
  MetricsRegistry::Global().GetCounter(counter).Add(delta);
}

// Same bridge for trace contexts: a task submitted while a request
// trace is installed carries its key onto the worker, so spans opened
// inside pool tasks land in the submitting request's trace.
uint64_t TraceContextCapture() { return CurrentTraceKey(); }
uint64_t TraceContextSwap(uint64_t key) { return SwapCurrentTraceKey(key); }

const bool g_pool_hooks_installed = [] {
  ThreadPool::SetMetricsHook(&PoolMetricsHook);
  ThreadPool::SetContextHooks(&TraceContextCapture, &TraceContextSwap);
  return true;
}();

}  // namespace

void WarmPipelineMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const char* name :
       {kKpcoreSearchesTotal, kKpcoreNodesVisited, kKpcoreNodesPruned,
        kKpcoreEdgesScanned, kProjectionBuildsTotal, kProjectionEdges,
        kSamplingSeedsTotal, kSamplingTriplesTotal,
        kSamplingNearNegativesTotal, kSamplingRandomNegativesTotal,
        kSamplingSeedsParallel,
        kTrainerEpochsTotal, kPgindexBuildsTotal, kPgindexNndescentIterations,
        kPgindexBuildDistanceComputations, kPgindexSearchesTotal,
        kPgindexDistanceComputations, kPgindexSq8DistanceComputations,
        kPgindexRerankCandidates,
        kTaQueriesTotal, kTaEntriesAccessed, kTaEarlyTerminationTotal,
        kRankingFullScansTotal, kRankingFullScanEntriesAccessed,
        kPoolTasksCancelled, kPoolWaitHelpRuns, kEngineBuildsTotal,
        kEngineQueriesTotal, kEngineBatchQueriesTotal,
        kEngineQueriesDeadlineExceeded, kServeRequests, kServeShed,
        kServeDeadlineExceeded, kServeBadRequests, kServeBatches,
        kServeSlowQueries, kServeTracesStarted, kServeTracesRetained,
        kServeTopNClamped, kServeReloads, kServeReloadFailures,
        kIngestRecords, kIngestBatches, kIngestDuplicates, kIngestRejected}) {
    registry.GetCounter(name);
  }
  for (const char* name :
       {kTrainerEpochLoss, kTrainerTriplesPerSec, kTrainerActiveTriples,
        kTrainerWorkers, kTrainerMergeSeconds, kProcessRssBytes,
        kProcessOpenFds, kProcessUptimeSeconds, kPoolQueueDepth,
        kPoolActiveWorkers, kPoolThreads, kServeGeneration,
        kServeGenerationQueries, kServeGenerationLatencyMsMean,
        kServeGenerationLoadSeconds, kIngestWalBytes,
        kIngestPendingDeltaEdges}) {
    registry.GetGauge(name);
  }
  // Latency-valued histograms get sub-millisecond .. 60 s bounds so tail
  // quantiles resolve; count-valued ones keep the power-of-two default.
  for (const char* name : {kEngineQueryLatencyMs, kEngineBatchLatencyMs,
                           kServeQueueWaitMs, kServeE2eMs, kIngestMergeMs,
                           kIngestApplyMs}) {
    registry.GetHistogram(name, LatencyHistogramBounds());
  }
  for (const char* name :
       {kKpcoreDeleteQueueSize, kProjectionBuildMs, kPgindexSearchHops,
        kPgindexCandidatePoolOccupancy, kTaRounds, kEngineBatchSize,
        kServeBatchSize}) {
    registry.GetHistogram(name);
  }
}

const char* PipelineMetricHelp(const std::string& name) {
  static const std::map<std::string, const char*>* help =
      new std::map<std::string, const char*>{
          {kServeRequests, "HTTP requests accepted by the service router."},
          {kServeShed, "Requests shed by admission control (429)."},
          {kServeDeadlineExceeded,
           "Requests that missed their deadline (504)."},
          {kServeBadRequests, "Malformed requests rejected (400)."},
          {kServeBatches, "Micro-batches dispatched to the engine."},
          {kServeBatchSize, "Queries coalesced per dispatched micro-batch."},
          {kServeQueueWaitMs,
           "Time a query waited in the batcher queue, milliseconds."},
          {kServeE2eMs,
           "End-to-end service latency (parse to response), milliseconds."},
          {kServeSlowQueries,
           "Requests that crossed a slow threshold (tail-kept trace)."},
          {kServeTracesStarted, "Request traces opened."},
          {kServeTracesRetained, "Request traces retained for debugging."},
          {kServeTopNClamped,
           "Requests whose n exceeded the service cap and was clamped."},
          {kServeReloads, "Successful artifact generation hot-swaps."},
          {kServeReloadFailures,
           "Reload attempts that failed; old generation kept serving."},
          {kServeGeneration, "Artifact generation currently serving."},
          {kServeGenerationQueries,
           "Queries answered by the serving generation since publish."},
          {kServeGenerationLatencyMsMean,
           "Mean engine-batch latency of the serving generation, ms."},
          {kServeGenerationLoadSeconds,
           "Wall-clock seconds the serving generation took to load."},
          {kIngestRecords, "Ingest records (papers) applied."},
          {kIngestBatches, "Ingest batches applied (one WAL record each)."},
          {kIngestDuplicates,
           "Ingest records skipped as duplicates of existing papers."},
          {kIngestRejected, "Ingest batches rejected before any change."},
          {kIngestWalBytes, "Byte offset of the last durable WAL record."},
          {kIngestPendingDeltaEdges,
           "Graph + index delta edges awaiting a base-CSR merge."},
          {kIngestMergeMs, "Delta-merge (compaction) wall-clock, ms."},
          {kIngestApplyMs, "Per-batch ingest apply wall-clock, ms."},
          {kProcessRssBytes, "Resident set size, bytes (sampled on scrape)."},
          {kProcessOpenFds,
           "Open file descriptors (sampled on scrape)."},
          {kProcessUptimeSeconds, "Process uptime, seconds."},
          {kPoolQueueDepth, "Thread-pool tasks queued at scrape time."},
          {kPoolActiveWorkers,
           "Thread-pool workers inside a task body at scrape time."},
          {kPoolThreads, "Thread-pool worker count."},
          {kEngineQueriesTotal, "Queries answered by the engine facade."},
          {kEngineQueryLatencyMs,
           "End-to-end FindExperts latency, milliseconds."},
          {kEngineBatchLatencyMs,
           "End-to-end FindExpertsBatch latency, milliseconds."},
          {kEngineQueriesDeadlineExceeded,
           "Queries whose batch deadline fired before completion."},
          {kPoolTasksCancelled,
           "Pool tasks skipped because their TaskGroup was cancelled."},
          {kPoolWaitHelpRuns,
           "Queued tasks run on a waiting thread (helping joins)."},
          {kPgindexSq8DistanceComputations,
           "SQ8 asymmetric distance evaluations (quantized traversal)."},
          {kPgindexRerankCandidates,
           "Candidates exact-reranked in fp32 after the SQ8 traversal."},
          {kTrainerEpochLoss,
           "Mean triplet loss of the most recent training epoch."},
          {kTrainerTriplesPerSec,
           "Training throughput of the most recent Train() call."},
          {kTrainerActiveTriples,
           "Fraction of margin-active triples in the final epoch."},
          {kTrainerWorkers,
           "Worker threads the most recent Train() call used."},
          {kTrainerMergeSeconds,
           "Seconds the most recent Train() call spent merging chunk "
           "gradients and stepping Adam (deterministic schedule)."},
      };
  auto it = help->find(name);
  return it == help->end() ? nullptr : it->second;
}

}  // namespace kpef::obs
