// Traced-run instrumentation, all from outside the library: MPCX's counter
// and pvar registries, a profiling hook that counts device sends per thread,
// and the benchmark's own spans around the calls it makes into each layer.
// Everything here is off in untraced runs (each Span then costs one load).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace mpcx {
class World;
}

namespace perfbench::probe {

/// Turn MPCX counters, pvars, the send hook and the benchmark spans on or off.
void set_enabled(bool on);
bool enabled();

/// Device sends (and their bytes) issued so far by the calling thread.
struct ThreadSends {
  std::uint64_t sends = 0, bytes = 0;
};
ThreadSends thread_sends();

/// Rank-local mark for exact counting: this thread's sends plus the rank's
/// core counter block. Tally the difference of two marks with account().
struct Mark {
  ThreadSends sends;
  std::array<std::uint64_t, mpcx::prof::kCtrCount> core{};
};
Mark mark(mpcx::World& world);
void account(Tally& tally, const Mark& before, const Mark& after, std::uint64_t calls);

/// Sum of every live counter block: device labels and core labels apart.
Counts registry_counts();

/// Clear pvar high-water marks and histograms of every live set, then read
/// them back later with pvar_peek().
void reset_pvars();
PvarPeek pvar_peek();

/// Percentile of a log2-bucket pvar histogram, interpolated inside a bucket.
double hist_percentile(const mpcx::prof::PvarSet::HistValue& hist, double q);

/// Threads of this process, from /proc/self/status (0 when unreadable).
int os_threads();

/// Host CPU time so far, from the first line of /proc/stat, in clock ticks:
/// all of it, and the part the hypervisor gave to other guests (steal).
struct HostTicks {
  std::uint64_t total = 0, steal = 0;
};
HostTicks host_ticks();

/// RAII span around one call into a layer. `name` must be a string literal.
/// A span's child time is the time covered by spans opened inside it on the
/// same thread; its self time is the rest.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
};

struct SpanStats {
  std::vector<double> dur_us, self_us;  ///< per span (the first 50k per thread)
  double total_us = 0, child_us = 0;    ///< over every span
};
/// Per-name aggregates of every span closed so far, on all threads.
std::map<std::string, SpanStats> span_stats();

/// Write the recorded spans as Chrome trace_event JSON ("X" events with id and
/// parent id in args). Returns false when the file cannot be written.
bool write_spans(const std::string& path);

}  // namespace perfbench::probe

namespace perfbench {
Counts operator-(const Counts& a, const Counts& b);
}  // namespace perfbench
