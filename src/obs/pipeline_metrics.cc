#include "obs/pipeline_metrics.h"

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace kpef::obs {

namespace {

// Bridges ThreadPool's layering-free metric callouts into the registry.
// common/ cannot depend on obs/, so the pool exposes a hook and any
// binary that links kpef_obs gets the counters wired at static-init
// time (hook invocations only happen at runtime, after init completes).
void PoolMetricsHook(const char* counter, uint64_t delta) {
  MetricsRegistry::Global().GetCounter(counter).Add(delta);
}

const bool g_pool_hook_installed = [] {
  ThreadPool::SetMetricsHook(&PoolMetricsHook);
  return true;
}();

}  // namespace

const PipelineMetric* FindPipelineMetric(std::string_view name) {
  for (const PipelineMetric& metric : kPipelineMetrics) {
    if (name == metric.name) return &metric;
  }
  return nullptr;
}

void WarmPipelineMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const PipelineMetric& metric : kPipelineMetrics) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        registry.GetCounter(metric.name);
        break;
      case MetricKind::kGauge:
        registry.GetGauge(metric.name);
        break;
      case MetricKind::kLatencyHistogram:
        registry.GetHistogram(metric.name, LatencyHistogramBounds());
        break;
      case MetricKind::kCountHistogram:
        registry.GetHistogram(metric.name);
        break;
    }
  }
}

}  // namespace kpef::obs
