#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>

#include "core/world.hpp"
#include "prof/hooks.hpp"

namespace perfbench::probe {
namespace {

using mpcx::prof::Ctr;
using mpcx::prof::Pv;

std::atomic<bool> g_enabled{false};

thread_local ThreadSends tl_sends;

/// Profiling hook: device send entry points fire on_send_begin on the thread
/// that issued the send, so per-thread counts are exact per rank.
class SendCounter final : public mpcx::prof::Hooks {
 public:
  void on_send_begin(const mpcx::prof::MsgInfo& info) override {
    ++tl_sends.sends;
    tl_sends.bytes += info.bytes;
  }
};

bool is_device_label(std::string_view label) {
  return label == "tcpdev" || label == "shmdev" || label == "hybdev" || label == "mxdev";
}

// ---- spans -------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::uint64_t t0_ns, t1_ns, id, parent;
};

struct Frame {
  const char* name;
  std::uint64_t t0_ns, child_ns, id, parent;
};

/// One thread's closed spans. Owned jointly by the thread and the global list,
/// so records outlive the thread that made them.
struct ThreadSpans {
  int tid = 0;
  std::mutex mu;
  std::vector<SpanRecord> records;
  std::map<const char*, SpanStats> stats;
};

// Bounds on memory: records written to the trace file (all threads), and
// duration samples kept per span name per thread. Totals stay exact.
constexpr std::size_t kMaxRecords = 50'000;
constexpr std::size_t kMaxSamples = 50'000;

std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::size_t> g_records{0};

thread_local std::vector<Frame> tl_stack;
thread_local std::shared_ptr<ThreadSpans> tl_spans;

ThreadSpans& my_spans() {
  if (!tl_spans) {
    tl_spans = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    tl_spans->tid = static_cast<int>(g_threads.size()) + 1;
    g_threads.push_back(tl_spans);
  }
  return *tl_spans;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

}  // namespace

void set_enabled(bool on) {
  mpcx::prof::set_stats_enabled(on);
  mpcx::prof::set_pvars_enabled(on);
  mpcx::prof::set_hooks(on ? std::make_shared<SendCounter>() : nullptr);
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

ThreadSends thread_sends() { return tl_sends; }

Mark mark(mpcx::World& world) { return Mark{tl_sends, world.counters().snapshot()}; }

void account(Tally& tally, const Mark& before, const Mark& after, std::uint64_t calls) {
  tally.sends += after.sends.sends - before.sends.sends;
  tally.bytes += after.sends.bytes - before.sends.bytes;
  tally.calls += calls;
  for (std::size_t i = 0; i < tally.core.size(); ++i) tally.core[i] += after.core[i] - before.core[i];
}

Counts registry_counts() {
  Counts out;
  for (const auto& entry : mpcx::prof::Registry::global().snapshot()) {
    auto* dst = entry.label.rfind("core/", 0) == 0 ? &out.core
                : is_device_label(entry.label)     ? &out.device
                                                   : nullptr;
    if (dst == nullptr) continue;
    for (std::size_t i = 0; i < dst->size(); ++i) (*dst)[i] += entry.values[i];
  }
  return out;
}

void reset_pvars() {
  for (const auto& entry : mpcx::prof::PvarRegistry::global().snapshot()) entry.set->reset();
}

PvarPeek pvar_peek() {
  PvarPeek out;
  for (const auto& entry : mpcx::prof::PvarRegistry::global().snapshot()) {
    const mpcx::prof::PvarSet& set = *entry.set;
    if (is_device_label(entry.label)) {
      out.unexpected_hwm = std::max(out.unexpected_hwm, set.gauge(Pv::UnexpectedDepth).hwm);
      out.backlog_hwm = std::max(out.backlog_hwm, set.gauge(Pv::SendBacklog).hwm);
      out.open_conn_hwm = std::max(out.open_conn_hwm, set.gauge(Pv::OpenConnections).hwm);
    } else if (entry.label == "proc") {
      out.match = set.hist(Pv::MatchLatencyNs);
      out.completion = set.hist(Pv::OpCompletionNs);
    }
  }
  return out;
}

double hist_percentile(const mpcx::prof::PvarSet::HistValue& hist, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : hist.buckets) total += b;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    const double count = static_cast<double>(hist.buckets[i]);
    if (count > 0 && seen + count >= target) {
      // Bucket i holds values v with bit_width(v) == i: [2^(i-1), 2^i).
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      return lo + (hi - lo) * (target - seen) / count;
    }
    seen += count;
  }
  return 0.0;
}

int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  HostTicks out;
  for (std::uint64_t& f : fields) {
    if (!(stat >> f)) return HostTicks{};
    out.total += f;
  }
  out.steal = fields[7];
  return out;
}

Span::Span(const char* name) : name_(name), active_(enabled()) {
  if (!active_) return;
  const std::uint64_t parent = tl_stack.empty() ? 0 : tl_stack.back().id;
  tl_stack.push_back(Frame{name, now_ns(), 0, g_next_span_id.fetch_add(1), parent});
}

Span::~Span() {
  if (!active_) return;
  const Frame frame = tl_stack.back();
  tl_stack.pop_back();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t dur = t1 - frame.t0_ns;
  if (!tl_stack.empty()) tl_stack.back().child_ns += dur;
  ThreadSpans& spans = my_spans();
  std::lock_guard<std::mutex> lock(spans.mu);
  SpanStats& stats = spans.stats[name_];
  if (stats.dur_us.size() < kMaxSamples) {
    stats.dur_us.push_back(static_cast<double>(dur) / 1e3);
    stats.self_us.push_back(static_cast<double>(dur - frame.child_ns) / 1e3);
  }
  stats.total_us += static_cast<double>(dur) / 1e3;
  stats.child_us += static_cast<double>(frame.child_ns) / 1e3;
  if (g_records.fetch_add(1, std::memory_order_relaxed) < kMaxRecords) {
    spans.records.push_back(SpanRecord{name_, frame.t0_ns, t1, frame.id, frame.parent});
  }
}

std::map<std::string, SpanStats> span_stats() {
  std::map<std::string, SpanStats> out;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& thread : g_threads) {
    std::lock_guard<std::mutex> thread_lock(thread->mu);
    for (const auto& [name, stats] : thread->stats) {
      SpanStats& merged = out[name];
      merged.dur_us.insert(merged.dur_us.end(), stats.dur_us.begin(), stats.dur_us.end());
      merged.self_us.insert(merged.self_us.end(), stats.self_us.begin(), stats.self_us.end());
      merged.total_us += stats.total_us;
      merged.child_us += stats.child_us;
    }
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  bool first = true;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& thread : g_threads) {
    std::lock_guard<std::mutex> thread_lock(thread->mu);
    for (const SpanRecord& r : thread->records) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",\n", r.name, thread->tid, static_cast<double>(r.t0_ns) / 1e3,
                   static_cast<double>(r.t1_ns - r.t0_ns) / 1e3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
      first = false;
    }
  }
  std::fputs("\n]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench::probe

namespace perfbench {

Counts operator-(const Counts& a, const Counts& b) {
  Counts out;
  for (std::size_t i = 0; i < out.device.size(); ++i) {
    out.device[i] = a.device[i] - b.device[i];
    out.core[i] = a.core[i] - b.core[i];
  }
  return out;
}

}  // namespace perfbench
