// Process self-metrics, sampled on demand (the /metrics handler calls
// this right before snapshotting the registry): RSS, open fd count,
// uptime, and thread-pool occupancy.

#ifndef KPEF_OBS_PROCESS_METRICS_H_
#define KPEF_OBS_PROCESS_METRICS_H_

namespace kpef {
class ThreadPool;
}  // namespace kpef

namespace kpef::obs {

/// Reads /proc/self and sets the process.* gauges; with a non-null
/// `pool` also sets the pool.* occupancy gauges. Values are best-effort
/// (a gauge keeps its previous value when the proc read fails).
void SampleProcessMetrics(ThreadPool* pool = nullptr);

}  // namespace kpef::obs

#endif  // KPEF_OBS_PROCESS_METRICS_H_
