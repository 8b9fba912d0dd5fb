// Shared declarations of the MPCX benchmark program.
//
// One run = one workload (a device and a rank layout) at one seed. A run
// launches the in-process cluster several times: short launches that only
// measure set-up, and one measured launch (a Session) that runs every phase:
//   pingpong  blocking ping-pong over a seeded ladder of 8 B / 16 KiB / 1 MiB;
//   msgrate   2 sender threads -> 2 receiver threads, Isend / Irecv(ANY) + Waitany;
//   apps      rounds of a CG solve, a heat2d block and a collective block;
//   ladder    (traced runs only) the same ping-pong timed at each layer.
// All ranks are threads of this process, so they share one steady clock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "prof/counters.hpp"
#include "prof/pvars.hpp"

namespace mpcx {
class World;
class Intracomm;
}  // namespace mpcx

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

/// splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic generator for every seeded input.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = mix64(state); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

/// Linear-interpolated percentile (q in [0, 1]) of a sample; NaN when empty.
double percentile(std::vector<double> values, double q);

struct Workload {
  const char* name;
  const char* device;
  int ranks;
  int peer;          ///< rank that answers rank 0 in ping-pong, msgrate and the ladder
  const char* node_id;  ///< MPCX_NODE_ID for the run, or nullptr
};

/// The workload table; nullptr when `name` is unknown.
const Workload* find_workload(std::string_view name);

/// Wall-clock seconds given to each phase of a session; the ladder runs only
/// when it has a budget.
struct Budget {
  double pingpong_s = 0, msgrate_s = 0, apps_s = 0, ladder_s = 0;
};

/// Counter totals of one phase: device blocks and core blocks summed over ranks.
struct Counts {
  std::array<std::uint64_t, mpcx::prof::kCtrCount> device{};
  std::array<std::uint64_t, mpcx::prof::kCtrCount> core{};
  std::uint64_t dev(mpcx::prof::Ctr c) const { return device[static_cast<std::size_t>(c)]; }
  std::uint64_t cor(mpcx::prof::Ctr c) const { return core[static_cast<std::size_t>(c)]; }
};

/// Pvar readings of one phase (high-water marks since the phase began).
struct PvarPeek {
  std::uint64_t unexpected_hwm = 0, backlog_hwm = 0, open_conn_hwm = 0;
  mpcx::prof::PvarSet::HistValue match, completion;
};

/// Exact per-operation counts for one kind of operation, summed over ranks:
/// device sends seen by the calling threads (hook-fed) and deltas of each
/// rank's own core counter block, taken around the operations themselves.
struct Tally {
  std::uint64_t sends = 0, bytes = 0, calls = 0;
  std::array<std::uint64_t, mpcx::prof::kCtrCount> core{};
  std::uint64_t cor(mpcx::prof::Ctr c) const { return core[static_cast<std::size_t>(c)]; }
};

/// What one measured launch gathers, merged from every rank thread.
struct Session {
  mutable std::mutex mu;
  std::map<std::string, std::vector<double>> samples;  ///< per-operation samples
  std::map<std::string, Tally> tallies;                ///< traced: exact counts
  std::map<std::string, Counts> phase_counts;          ///< traced: registry deltas
  std::map<std::string, PvarPeek> phase_pvars;         ///< traced: pvar readings
  std::vector<std::uint64_t> pids;  ///< device ProcessIDs of the session's ranks
  std::uint64_t ops = 0, failed = 0;  ///< operations completed and checked; failures
  double cpu_us = 0, wall_us = 0;
  int os_threads = 0;
  std::uint64_t waitany_rescues = 0;  ///< msgrate receivers woken after a stalled Waitany
  double steal_share = 0;  ///< host CPU time stolen by the hypervisor during the launch
  std::vector<std::string> failures;

  void add_samples(const std::string& key, const std::vector<double>& values);
  /// Fold another (finished) session into this one.
  void absorb(Session& other);
  void add_tally(const std::string& key, const Tally& tally);
  /// Count one failed operation and keep its description (the first few).
  void fail(const std::string& what);
  double p(const std::string& key, double q) const;
};

struct RunSpec {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  Budget budget;
  bool traced = false;   ///< counters, pvars, hooks and spans on
  std::string out_dir;   ///< where trace files go
};

/// One measured launch: every phase of the workload, then the ladder if
/// budgeted. Throws when a rank fails outright (error, timeout).
void run_session(const RunSpec& spec, Session& session);

/// One set-up-only launch: cluster::launch until the first Barrier completed
/// on every rank. Returns seconds.
double measure_setup(const RunSpec& spec, std::vector<std::uint64_t>& pids);

/// Cross-rank state of the ladder's transport floor (defined in ladder.cpp).
struct FloorShared;
std::shared_ptr<FloorShared> make_floor_shared();

/// The ladder half of a session, called by run_session on every rank.
void run_ladder(const RunSpec& spec, Session& session, mpcx::World& world, FloorShared& floor);

/// Name of the phase rank 0 is in, for the watchdog's report.
void set_current_phase(const char* name);
const char* current_phase();

/// True while rank 0's clock is before `deadline_us`; rank 0 decides and
/// broadcasts so every rank leaves a loop together.
bool keep_going(const mpcx::Intracomm& comm, double deadline_us);

/// Serial (np=1, no MPCX) reference loops: median µs per CG iteration and per
/// heat step on the same problem sizes the apps phase uses.
double serial_cg_iter_us(std::uint64_t seed, double seconds);
double serial_heat_step_us(std::uint64_t seed, double seconds);

}  // namespace perfbench
