// mpcx_perfbench — one run of one MPCX benchmark workload.
//
//   mpcx_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints one JSON object on stdout: correct/attempted/failed, the metrics
// (end-to-end with --trace 0, per-layer with --trace 1), the configuration
// stamp, failure descriptions and per-metric sample counts. perfbench/run.py
// builds this binary and reduces the object to the benchmark's result line.
#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"

extern char** environ;

namespace perfbench {
namespace {

using mpcx::prof::Ctr;

struct Metric {
  std::string name, unit;
  double value;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// The end-to-end timings and CPU cost of one untraced launch.
std::vector<Metric> launch_metrics(const Session& s) {
  return {
      {"lat_8B_us.p50", "us", s.p("lat_8B", 0.50)},
      {"lat_16KiB_us.p50", "us", s.p("lat_16KiB", 0.50)},
      {"bw_1MiB_MBps", "MB/s", s.p("bw_1MiB", 0.50)},
      {"msg_rate_kps", "kmsg/s", s.p("msg_rate_kps", 0.50)},
      {"cg_iter_us.p50", "us", s.p("cg_iter", 0.50)},
      {"heat_step_us.p50", "us", s.p("heat_step", 0.50)},
      {"allreduce_8B_us.p50", "us", s.p("allreduce_8B", 0.50)},
      {"allreduce_64KiB_us.p50", "us", s.p("allreduce_64KiB", 0.50)},
      {"bcast_64KiB_us.p50", "us", s.p("bcast_64KiB", 0.50)},
      {"barrier_us.p50", "us", s.p("barrier", 0.50)},
      {"iallreduce_64KiB_us.p50", "us", s.p("iallreduce_64KiB", 0.50)},
      {"cpu_us_per_op", "us/op", ratio(s.cpu_us, static_cast<double>(s.ops))},
  };
}

/// Launches during which the hypervisor stole more host CPU time than this
/// measure the machine's other tenants, not MPCX.
constexpr double kMaxStealShare = 0.03;

/// The launches whose timings count: those the host left alone or, when
/// fewer than a third were, the third it disturbed least.
std::vector<const Session*> calm_launches(const std::vector<std::unique_ptr<Session>>& launches) {
  std::vector<const Session*> by_steal;
  for (const auto& launch : launches) by_steal.push_back(launch.get());
  std::sort(by_steal.begin(), by_steal.end(),
            [](const Session* a, const Session* b) { return a->steal_share < b->steal_share; });
  std::size_t keep = (by_steal.size() + 2) / 3;
  while (keep < by_steal.size() && by_steal[keep]->steal_share <= kMaxStealShare) ++keep;
  by_steal.resize(keep);
  return by_steal;
}

/// End-to-end metrics of a run: set-up time, then the median over launches of
/// each launch's value, so a minority of launches that drew a slow thread
/// placement (or a busy host) cannot move a run's figure.
std::vector<Metric> end_to_end(const std::vector<const Session*>& launches,
                               const std::vector<double>& setup_s) {
  std::vector<Metric> out = {{"setup_s", "s", median(setup_s)}};
  std::vector<std::vector<Metric>> each;
  for (const Session* launch : launches) each.push_back(launch_metrics(*launch));
  for (std::size_t m = 0; !each.empty() && m < each.front().size(); ++m) {
    std::vector<double> values;
    for (const auto& metrics : each) {
      if (std::isfinite(metrics[m].value)) values.push_back(metrics[m].value);
    }
    out.push_back({each.front()[m].name, each.front()[m].unit, median(values)});
  }
  return out;
}

/// Sample keys whose medians make up trace.overhead.
constexpr const char* kOverheadKeys[] = {"lat_8B",    "lat_16KiB",       "cg_iter",
                                         "heat_step", "allreduce_8B",    "allreduce_64KiB",
                                         "bcast_64KiB", "barrier",       "iallreduce_64KiB"};

std::vector<Metric> per_layer(Session& untraced, Session& traced, int ranks, std::uint64_t seed,
                              int leaked_segments) {
  std::vector<Metric> out;
  auto add = [&](std::string name, const char* unit, double value) {
    out.push_back({std::move(name), unit, value});
  };

  // Ladder: each layer's median, then what each layer adds over the one below.
  const char* sizes[] = {"8B", "16KiB", "1MiB"};
  const char* layers[] = {"floor", "xdev", "mpdev", "core", "core_derived", "core_traced"};
  for (const char* layer : layers) {
    for (const char* size : sizes) {
      const std::string key = std::string("stack.") + layer + "." + size + "_us";
      add(key, "us", traced.p(key, 0.5));
    }
  }
  auto stack = [&](const char* layer, const char* size) {
    return traced.p(std::string("stack.") + layer + "." + size + "_us", 0.5);
  };
  const std::pair<const char*, std::pair<const char*, const char*>> adds[] = {
      {"xdev", {"xdev", "floor"}},   {"mpdev", {"mpdev", "xdev"}},
      {"core", {"core", "mpdev"}},   {"pack", {"core_derived", "core"}},
      {"trace", {"core_traced", "core"}}};
  for (const auto& [name, pair] : adds) {
    for (const char* size : sizes) {
      add(std::string("add.") + name + "." + size + "_us", "us",
          stack(pair.first, size) - stack(pair.second, size));
    }
  }

  // bufx: packing and zero-copy per operation, pool reuse over the session.
  auto& t = traced.tallies;
  for (const char* phase : {"pingpong", "heat"}) {
    const Tally& tally = t[phase];
    const double packed = static_cast<double>(tally.cor(Ctr::PackBytes) + tally.cor(Ctr::UnpackBytes));
    const double avoided =
        static_cast<double>(tally.cor(Ctr::PackBytesAvoided) + tally.cor(Ctr::UnpackBytesAvoided));
    add(std::string("bufx.pack_bytes_per_op.") + phase, "B",
        ratio(static_cast<double>(tally.cor(Ctr::PackBytes)), static_cast<double>(tally.calls)));
    add(std::string("bufx.zero_copy_share.") + phase, "ratio", ratio(avoided, packed + avoided));
  }
  Counts all;
  for (const auto& [phase, counts] : traced.phase_counts) {
    for (std::size_t i = 0; i < all.core.size(); ++i) {
      all.core[i] += counts.core[i];
      all.device[i] += counts.device[i];
    }
  }
  add("bufx.pool_hit_ratio", "ratio",
      ratio(static_cast<double>(all.cor(Ctr::PoolHits)),
            static_cast<double>(all.cor(Ctr::PoolHits) + all.cor(Ctr::PoolMisses))));

  // xdev: exact traffic per operation, then matching and queue behaviour.
  for (const char* phase : {"pingpong", "msgrate", "cg", "heat"}) {
    const Tally& tally = t[phase];
    add(std::string("xdev.msgs_per_op.") + phase, "count",
        ratio(static_cast<double>(tally.sends), static_cast<double>(tally.calls)));
    add(std::string("xdev.bytes_per_op.") + phase, "B",
        ratio(static_cast<double>(tally.bytes), static_cast<double>(tally.calls)));
  }
  Counts& pp = traced.phase_counts["pingpong"];
  Counts& rate = traced.phase_counts["msgrate"];
  Counts& apps = traced.phase_counts["apps"];
  auto share = [](std::uint64_t part, std::uint64_t other) {
    return ratio(static_cast<double>(part), static_cast<double>(part + other));
  };
  add("xdev.eager_share.pingpong", "ratio", share(pp.dev(Ctr::EagerSends), pp.dev(Ctr::RndvSends)));
  add("xdev.unexpected_share.pingpong", "ratio",
      share(pp.dev(Ctr::UnexpectedMatches), pp.dev(Ctr::PostedMatches)));
  add("xdev.unexpected_share.msgrate", "ratio",
      share(rate.dev(Ctr::UnexpectedMatches), rate.dev(Ctr::PostedMatches)));
  PvarPeek& rate_pv = traced.phase_pvars["msgrate"];
  add("xdev.unexpected_depth_hwm.msgrate", "count", static_cast<double>(rate_pv.unexpected_hwm));
  add("xdev.send_backlog_hwm.msgrate", "count", static_cast<double>(rate_pv.backlog_hwm));
  add("xdev.match_latency_ns.p50.msgrate", "ns", probe::hist_percentile(rate_pv.match, 0.5));
  add("xdev.op_completion_ns.p50.pingpong", "ns",
      probe::hist_percentile(traced.phase_pvars["pingpong"].completion, 0.5));
  add("xdev.epoll_wakeups_per_msg.msgrate", "ratio",
      ratio(static_cast<double>(rate.dev(Ctr::EpollWakeups)), static_cast<double>(rate.dev(Ctr::MsgsRecvd))));
  add("xdev.hyb_intra_share.apps", "ratio",
      share(apps.dev(Ctr::HybIntraMsgs), apps.dev(Ctr::HybInterMsgs)));
  std::uint64_t conns = 0;
  for (const auto& [phase, pv] : traced.phase_pvars) conns = std::max(conns, pv.open_conn_hwm);
  add("xdev.open_connections_hwm", "count", static_cast<double>(conns));
  add("xdev.shm_leaked_segments", "count", leaked_segments);

  // mpdev: the Waitany machinery under the threaded receivers.
  add("mpdev.peek_wakeups_per_completion.msgrate", "ratio",
      ratio(static_cast<double>(rate.dev(Ctr::PeekWakeups)), static_cast<double>(rate.dev(Ctr::MsgsRecvd))));
  add("mpdev.waitany_us.p50", "us", traced.p("waitany_us", 0.5));
  add("mpdev.waitany_rescues", "count",
      static_cast<double>(untraced.waitany_rescues + traced.waitany_rescues));

  // core collectives: exact device sends per call, single-copy use, schedule rounds.
  std::uint64_t coll_calls = 0, level_local = 0;
  for (const char* kind : {"allreduce_64KiB", "bcast_64KiB", "barrier", "iallreduce_64KiB"}) {
    const Tally& tally = t[std::string("coll.") + kind];
    coll_calls += tally.calls;
    level_local += tally.cor(Ctr::LevelLocalBytes);
    add(std::string("coll.msgs_per_call.") + kind, "count",
        ratio(static_cast<double>(tally.sends), static_cast<double>(tally.calls)));
    if (std::strcmp(kind, "barrier") != 0) {
      add(std::string("coll.singlecopy_share.") + kind, "ratio",
          ratio(static_cast<double>(tally.cor(Ctr::SinglecopyColls)),
                static_cast<double>(tally.calls) * ranks));
    }
  }
  add("coll.level_local_bytes_per_call", "B",
      ratio(static_cast<double>(level_local), static_cast<double>(coll_calls)));
  const Tally& iall = t["coll.iallreduce_64KiB"];
  add("coll.sched_rounds_per_call", "count",
      ratio(static_cast<double>(iall.cor(Ctr::SchedRounds)), static_cast<double>(iall.calls)));

  // Application: time inside MPCX calls, compute (span self time), serial loop.
  const auto spans = probe::span_stats();
  for (const auto& [app, span] : {std::pair{"cg", "cg.iter"}, std::pair{"heat", "heat.step"}}) {
    auto it = spans.find(span);
    const bool found = it != spans.end();
    add(std::string("app.comm_share.") + app, "ratio",
        found ? ratio(it->second.child_us, it->second.total_us) : 0.0);
    add(std::string("app.compute_us.") + app, "us", found ? median(it->second.self_us) : 0.0);
  }
  add("app.serial_us.cg", "us", serial_cg_iter_us(seed, 0.25));
  add("app.serial_us.heat", "us", serial_heat_step_us(seed, 0.25));

  // Tails: the p90 moves with the host's other tenants several times more than
  // the p50 does, so it is reported here, without a bound.
  add("tail.lat_8B_us.p90", "us", untraced.p("lat_8B", 0.90));
  add("tail.cg_iter_us.p90", "us", untraced.p("cg_iter", 0.90));

  // Process: CPU bought per wall second, and how many threads the stack runs.
  add("proc.cpu_per_wall", "ratio", ratio(untraced.cpu_us, untraced.wall_us));
  add("proc.os_threads", "count", std::max(untraced.os_threads, traced.os_threads));

  std::vector<double> ratios;
  for (const char* key : kOverheadKeys) ratios.push_back(traced.p(key, 0.5) / untraced.p(key, 0.5));
  add("trace.overhead", "ratio", median(ratios) - 1.0);
  return out;
}

/// shmdev segments of this run's ProcessIDs still present after every world
/// finalized; each one found is unlinked after counting.
int leaked_segments(const std::vector<std::uint64_t>& pids) {
  int leaked = 0;
  for (const std::uint64_t pid : pids) {
    const std::string name = "/mpcx_seg_" + std::to_string(pid);
    const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
    if (fd < 0) continue;
    ::close(fd);
    ::shm_unlink(name.c_str());
    ++leaked;
  }
  return leaked;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Run `count` launches that share the budget of `spec`. Each launch keeps its
/// own session (for per-launch medians) and is also folded into `pooled`; the
/// ladder (if budgeted) runs in the last launch.
std::vector<std::unique_ptr<Session>> run_launches(RunSpec spec, int count, Session& pooled) {
  const Budget total = spec.budget;
  spec.budget = Budget{total.pingpong_s / count, total.msgrate_s / count, total.apps_s / count, 0.0};
  std::vector<std::unique_ptr<Session>> launches;
  for (int i = 0; i < count; ++i) {
    spec.budget.ladder_s = i == count - 1 ? total.ladder_s : 0.0;
    launches.push_back(std::make_unique<Session>());
    run_session(spec, *launches.back());
    pooled.absorb(*launches.back());
  }
  return launches;
}

/// Set-up time of `count` launches, with the whole process confined to one
/// CPU. Ranks then start in the same order every time, so start-up races
/// between them (shmdev polls for a peer's segment in 1-2 ms sleeps) resolve
/// alike in every launch, instead of by how many idle CPUs the launch found.
std::vector<double> measure_setups(const RunSpec& spec, int count, std::vector<std::uint64_t>& pids) {
  cpu_set_t all, one;
  ::sched_getaffinity(0, sizeof(all), &all);
  int first = 0;
  while (first < CPU_SETSIZE - 1 && !CPU_ISSET(first, &all)) ++first;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
  std::vector<double> setup_s;
  try {
    for (int i = 0; i < count; ++i) setup_s.push_back(measure_setup(spec, pids));
  } catch (...) {
    ::sched_setaffinity(0, sizeof(all), &all);
    throw;
  }
  ::sched_setaffinity(0, sizeof(all), &all);
  return setup_s;
}

/// SIGALRM: the run overran its time limit. Only async-signal-safe calls.
extern "C" void on_watchdog(int) {
  static const char kMsg[] = "mpcx_perfbench: time limit exceeded; stuck in phase ";
  const char* phase = current_phase();
  [[maybe_unused]] ssize_t n = ::write(2, kMsg, sizeof(kMsg) - 1);
  n = ::write(2, phase, std::strlen(phase));
  n = ::write(2, "\n", 1);
  ::_exit(3);
}

int usage() {
  std::fprintf(stderr,
               "usage: mpcx_perfbench --workload pingpong_shm|threads_tcp|apps_hyb --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunSpec spec;
  double seconds = 10;
  bool trace = false;
  spec.out_dir = "perfbench/out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      spec.wl = find_workload(value);
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      spec.out_dir = value;
    } else {
      return usage();
    }
  }
  if (spec.wl == nullptr || !(seconds > 0)) return usage();
  std::filesystem::create_directories(spec.out_dir);

  // A hang becomes a Timeout error (a counted failure), never a stalled run.
  ::setenv("MPCX_OP_TIMEOUT_MS", "20000", 1);
  if (spec.wl->node_id != nullptr) ::setenv("MPCX_NODE_ID", spec.wl->node_id, 1);

  // A stuck run must still end well inside the caller's limit: report where
  // it stopped and exit without a result.
  std::signal(SIGALRM, on_watchdog);
  ::alarm(static_cast<unsigned>(std::min(150.0, 3 * seconds + 60)));

  // The budget is split over several launches: thread placement and wake-up
  // paths differ from launch to launch, so a run reports medians over launches
  // (end_to_end) rather than one draw. A short discarded launch first brings
  // the machine from idle to the steady state every later launch sees.
  // Untraced runs spend it all on end-to-end metrics; traced runs spend a third
  // untraced (trace.overhead's base), a third traced and a third on the ladder.
  const double share = trace ? seconds / 3 : seconds;
  spec.budget = Budget{0.30 * share, 0.25 * share, 0.45 * share, trace ? share : 0.0};
  const int launches = trace ? 4 : 12;
  const int setup_launches = trace ? 10 : 60;

  Session warmup, untraced, traced;
  std::vector<std::unique_ptr<Session>> untraced_launches;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> pids;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  try {
    RunSpec warm = spec;
    warm.budget = Budget{0.5, 0.4, 0.6, 0.0};
    run_session(warm, warmup);
    setup_s = measure_setups(spec, setup_launches, pids);
    attempted += setup_s.size();
    RunSpec plain = spec;
    plain.budget.ladder_s = 0;
    untraced_launches = run_launches(plain, launches, untraced);
    if (trace) {
      RunSpec traced_spec = spec;
      traced_spec.traced = true;
      run_launches(traced_spec, launches, traced);
      probe::write_spans(spec.out_dir + "/spans-" + spec.wl->name + "-" +
                         std::to_string(spec.seed) + ".json");
    }
  } catch (const std::exception& e) {
    ++failed;
    failures.push_back(std::string("run aborted: ") + e.what());
  }
  for (Session* s : {&warmup, &untraced, &traced}) {
    pids.insert(pids.end(), s->pids.begin(), s->pids.end());
    attempted += s->ops;
    failed += s->failed;
    failures.insert(failures.end(), s->failures.begin(), s->failures.end());
  }
  const int leaked = leaked_segments(pids);
  const std::vector<Metric> metrics =
      trace ? per_layer(untraced, traced, spec.wl->ranks, spec.seed, leaked)
            : end_to_end(calm_launches(untraced_launches), setup_s);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) continue;  // only a failed run lacks samples
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}, \"stamp\": {\"workload\": \"" + std::string(spec.wl->name) + "\", \"seed\": " +
          std::to_string(spec.seed) + ", \"device\": \"" + spec.wl->device +
          "\", \"ranks\": " + std::to_string(spec.wl->ranks) + ", \"seconds\": " +
          std::to_string(seconds) + ", \"trace\": " + (trace ? "1" : "0") +
          ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
          ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
          "\", \"leaked_shm_segments\": " + std::to_string(leaked) +
          ", \"waitany_rescues\": " +
          std::to_string(warmup.waitany_rescues + untraced.waitany_rescues + traced.waitany_rescues) +
          ", \"launches\": " + std::to_string(untraced_launches.size()) +
          ", \"calm_launches\": " +
          std::to_string(std::count_if(untraced_launches.begin(), untraced_launches.end(),
                                       [](const auto& l) { return l->steal_share <= kMaxStealShare; })) +
          ", \"launches_used\": " + std::to_string(calm_launches(untraced_launches).size()) +
          ", \"env\": {";
  first = true;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("MPCX_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    json += std::string(first ? "" : ", ") + "\"" + json_escape(entry.substr(0, eq)) + "\": \"" +
            json_escape(entry.substr(eq + 1)) + "\"";
    first = false;
  }
  json += "}}, \"samples\": {";
  first = true;
  for (const auto& [key, values] : (trace ? traced : untraced).samples) {
    json += std::string(first ? "" : ", ") + "\"" + key + "\": " + std::to_string(values.size());
    first = false;
  }
  json += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" + json_escape(failures[i]) + "\"";
  }
  json += "]}\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}
