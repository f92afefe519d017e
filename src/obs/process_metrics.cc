#include "obs/process_metrics.h"

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef::obs {

namespace {

// Captured at first use; close enough to process start for an uptime
// gauge (kpef_obs initializes well before the server accepts traffic).
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

// Resident pages from /proc/self/statm (field 2), in bytes; 0 on error.
double ReadRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size_pages = 0;
  long resident_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// Entries in /proc/self/fd (excluding . and ..); -1 on error.
double ReadOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1.0;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  // The traversal itself holds one descriptor open on the directory.
  return static_cast<double>(count > 0 ? count - 1 : count);
}

}  // namespace

void SampleProcessMetrics(ThreadPool* pool) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const double rss = ReadRssBytes();
  if (rss > 0.0) registry.GetGauge(kProcessRssBytes).Set(rss);
  const double fds = ReadOpenFds();
  if (fds >= 0.0) registry.GetGauge(kProcessOpenFds).Set(fds);
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_process_start)
          .count();
  registry.GetGauge(kProcessUptimeSeconds).Set(uptime);
  if (pool != nullptr) {
    registry.GetGauge(kPoolQueueDepth)
        .Set(static_cast<double>(pool->QueueDepth()));
    registry.GetGauge(kPoolActiveWorkers)
        .Set(static_cast<double>(pool->ActiveWorkers()));
    registry.GetGauge(kPoolThreads)
        .Set(static_cast<double>(pool->num_threads()));
  }
}

}  // namespace kpef::obs
