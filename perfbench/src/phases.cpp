// The measured phases of a session: ping-pong ladder, threaded message rate,
// and the application rounds (CG, heat2d, collectives). Every operation's
// output is checked; a wrong result counts as a failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "core/cartcomm.hpp"
#include "core/cluster.hpp"
#include "core/intracomm.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using mpcx::types::BYTE;
using mpcx::types::DOUBLE;

constexpr int kPingTag = 11;
constexpr std::array<std::size_t, 3> kPingSizes = {8, 16 << 10, 1 << 20};
constexpr std::array<const char*, 3> kPingKeys = {"lat_8B", "lat_16KiB", "bw_1MiB"};
constexpr std::array<int, 3> kPingReps = {200, 60, 6};  // round trips per size per batch

constexpr int kRateSenders = 2;          // sender threads on rank 0 (= receiver threads)
constexpr int kRateWindow = 32;          // Isends / Irecvs in flight per thread
constexpr int kRateMsgsPerThread = 1024; // per round
constexpr std::size_t kRateBytes = 32;

constexpr int kCgN = 256;        // global unknowns of the 1D Poisson system
constexpr int kHeatN = 128;      // global heat2d grid is kHeatN x kHeatN
constexpr int kHeatSteps = 40;   // steps per heat block
constexpr int kHotSpots = 4;
constexpr int kCollDoubles = 8192;  // 64 KiB
constexpr int kCollRepeats = 4;     // calls of each collective per block

double cpu_us() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& t) { return static_cast<double>(t.tv_sec) * 1e6 + t.tv_usec; };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Fold one launch's pvar readings into the session's: maxima of the
/// high-water marks, sums of the histograms.
void merge(PvarPeek& into, const PvarPeek& from) {
  into.unexpected_hwm = std::max(into.unexpected_hwm, from.unexpected_hwm);
  into.backlog_hwm = std::max(into.backlog_hwm, from.backlog_hwm);
  into.open_conn_hwm = std::max(into.open_conn_hwm, from.open_conn_hwm);
  for (auto [dst, src] : {std::pair{&into.match, &from.match}, std::pair{&into.completion, &from.completion}}) {
    dst->count += src->count;
    dst->sum += src->sum;
    for (std::size_t i = 0; i < dst->buckets.size(); ++i) dst->buckets[i] += src->buckets[i];
  }
}

void add(Counts& into, const Counts& from) {
  for (std::size_t i = 0; i < into.device.size(); ++i) {
    into.device[i] += from.device[i];
    into.core[i] += from.core[i];
  }
}

/// Brackets one phase on every rank: barriers at both ends, and on rank 0 the
/// wall/CPU clock plus (traced) registry and pvar readings.
class Phase {
 public:
  Phase(mpcx::World& world, Session& session, const char* name, bool traced)
      : comm_(world.COMM_WORLD()), session_(session), name_(name), traced_(traced) {
    if (comm_.Rank() == 0) set_current_phase(name);
    comm_.Barrier();
    if (comm_.Rank() == 0) {
      if (traced_) {
        counts0_ = probe::registry_counts();
        probe::reset_pvars();
      }
      cpu0_ = cpu_us();
      wall0_ = now_us();
    }
    comm_.Barrier();
  }

  /// Close the phase; rank 0 passes the operations it completed.
  void end(std::uint64_t ops) {
    comm_.Barrier();
    if (comm_.Rank() != 0) return;
    const double wall = now_us() - wall0_;
    const double cpu = cpu_us() - cpu0_;
    std::lock_guard<std::mutex> lock(session_.mu);
    session_.wall_us += wall;
    session_.cpu_us += cpu;
    session_.ops += ops;
    session_.os_threads = std::max(session_.os_threads, probe::os_threads());
    if (traced_) {
      add(session_.phase_counts[name_], probe::registry_counts() - counts0_);
      merge(session_.phase_pvars[name_], probe::pvar_peek());
    }
  }

 private:
  const mpcx::Intracomm& comm_;
  Session& session_;
  const char* name_;
  bool traced_;
  Counts counts0_;
  double cpu0_ = 0, wall0_ = 0;
};

/// Per-rank exact counting around a stretch of operations (traced only).
class Counting {
 public:
  Counting(mpcx::World& world, bool traced) : world_(world), traced_(traced) {}
  void begin() {
    if (traced_) before_ = probe::mark(world_);
  }
  void end(const std::string& key, std::uint64_t calls) {
    if (!traced_) return;
    probe::account(tallies_[key], before_, probe::mark(world_), calls);
  }
  void flush(Session& session) {
    for (const auto& [key, tally] : tallies_) session.add_tally(key, tally);
  }

 private:
  mpcx::World& world_;
  bool traced_;
  probe::Mark before_;
  std::map<std::string, Tally> tallies_;
};

void fill_seeded(std::vector<std::byte>& buf, std::uint64_t seed) {
  Rng rng{seed};
  for (std::size_t i = 0; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(buf.data() + i, &v, 8);
  }
}

// ---- pingpong ------------------------------------------------------------------------

void phase_pingpong(const RunSpec& spec, Session& session, mpcx::World& world) {
  const mpcx::Intracomm& comm = world.COMM_WORLD();
  const int rank = comm.Rank();
  const int peer = spec.wl->peer;
  const bool active = rank == 0 || rank == peer;
  std::vector<std::byte> ping(kPingSizes.back()), back(kPingSizes.back());
  fill_seeded(ping, mix64(spec.seed ^ 0x50494E47ull));
  std::array<std::vector<double>, 3> samples;
  std::uint64_t failed = 0;
  Counting counting(world, spec.traced);

  Phase phase(world, session, "pingpong", spec.traced);
  const double deadline = now_us() + spec.budget.pingpong_s * 1e6;
  for (std::uint64_t batch = 0; keep_going(comm, deadline); ++batch) {
    if (!active) continue;
    // The seed (and batch) set the order in which the sizes are visited.
    Rng rng{mix64(spec.seed + batch * 0x9E37ull)};
    std::vector<int> order = {0, 1, 2};
    rng.shuffle(order);
    std::uint64_t round_trips = 0;
    counting.begin();
    for (const int k : order) {
      const int n = static_cast<int>(kPingSizes[static_cast<std::size_t>(k)]);
      for (int i = 0; i < kPingReps[static_cast<std::size_t>(k)]; ++i) {
        if (rank != 0) {
          comm.Recv(back.data(), 0, n, BYTE(), 0, kPingTag);
          comm.Send(back.data(), 0, n, BYTE(), 0, kPingTag);
          continue;
        }
        // Stamp both ends so a stale buffer can never pass the check.
        const std::uint64_t stamp = mix64(spec.seed ^ (batch << 24) ^ (static_cast<std::uint64_t>(i) << 4) ^ k);
        std::memcpy(ping.data(), &stamp, 8);
        std::memcpy(ping.data() + n - 8, &stamp, 8);
        const double t0 = now_us();
        {
          probe::Span span("pp.round_trip");
          mpcx::Request reply = comm.Irecv(back.data(), 0, n, BYTE(), peer, kPingTag);
          comm.Send(ping.data(), 0, n, BYTE(), peer, kPingTag);
          reply.Wait();
        }
        const double half_rtt = (now_us() - t0) / 2;
        samples[static_cast<std::size_t>(k)].push_back(k == 2 ? n / half_rtt : half_rtt);
        ++round_trips;
        if (std::memcmp(back.data(), ping.data(), static_cast<std::size_t>(n)) != 0) ++failed;
      }
    }
    counting.end("pingpong", round_trips);
  }
  std::uint64_t total = 0;
  for (const auto& s : samples) total += s.size();
  phase.end(total);
  for (std::size_t k = 0; k < samples.size(); ++k) session.add_samples(kPingKeys[k], samples[k]);
  counting.flush(session);
  for (std::uint64_t i = 0; i < failed; ++i) session.fail("pingpong: echoed payload differs");
}

// ---- msgrate ---------------------------------------------------------------------------

struct RateMessage {
  std::uint32_t thread, round;
  std::uint64_t seq, fill, check;
};
static_assert(sizeof(RateMessage) == kRateBytes);

std::uint64_t rate_check(std::uint64_t seed, const RateMessage& m) {
  return mix64(seed ^ m.fill ^ (m.seq << 1) ^ (static_cast<std::uint64_t>(m.thread) << 40) ^
               (static_cast<std::uint64_t>(m.round) << 48));
}

/// Cross-rank state of the message-rate phase (ranks are threads of one process).
struct RateShared {
  std::atomic<double> first_send{0}, last_delivery{0};
  std::vector<std::atomic<std::uint8_t>> seen =
      std::vector<std::atomic<std::uint8_t>>(kRateSenders * kRateMsgsPerThread);
  std::array<std::atomic<int>, kRateSenders> received{};     ///< per receiver thread, this round
  std::array<std::atomic<int>, kRateSenders> wakes_sent{};  ///< stall rescues, whole phase
};

/// A receiver thread's private wake-up receive: one Irecv on a communicator no
/// payload uses, kept in every Waitany so a stalled thread can be woken.
struct Waker {
  const mpcx::Intracomm& comm;
  int thread;
  int slot = 0;
  int consumed = 0;
  mpcx::Request request;
  void post() { request = comm.Irecv(&slot, 0, 1, mpcx::types::INT(), mpcx::ANY_SOURCE, thread); }
};

void rate_send(const RunSpec& spec, const mpcx::Intracomm& comm, int peer, int thread,
               std::uint32_t round, RateShared& shared) {
  std::vector<RateMessage> out(kRateWindow);
  std::vector<mpcx::Request> requests(kRateWindow);
  Rng rng{mix64(spec.seed ^ (static_cast<std::uint64_t>(round) << 8) ^ thread)};
  for (int w = 0; w < kRateMsgsPerThread / kRateWindow; ++w) {
    for (int j = 0; j < kRateWindow; ++j) {
      RateMessage& m = out[static_cast<std::size_t>(j)];
      m = RateMessage{static_cast<std::uint32_t>(thread), round,
                      static_cast<std::uint64_t>(w * kRateWindow + j), rng.next(), 0};
      m.check = rate_check(spec.seed, m);
    }
    if (w == 0) {  // first_send = earliest first send of any thread (0 = unset)
      const double t = now_us();
      double cur = shared.first_send.load();
      while ((cur == 0 || t < cur) && !shared.first_send.compare_exchange_weak(cur, t)) {
      }
    }
    for (int j = 0; j < kRateWindow; ++j) {
      probe::Span span("core.Isend");
      requests[static_cast<std::size_t>(j)] =
          comm.Isend(&out[static_cast<std::size_t>(j)], 0, kRateBytes, BYTE(), peer, thread);
    }
    mpcx::Request::Waitall(requests);
  }
}

/// Drain this thread's share of a round; returns the number of payload check failures.
std::uint64_t rate_receive(const RunSpec& spec, const mpcx::Intracomm& comm, RateShared& shared,
                           std::uint32_t round, Waker& waker, std::vector<double>& waitany_us) {
  std::vector<RateMessage> in(kRateWindow);
  std::vector<mpcx::Request> requests(kRateWindow + 1);
  std::uint64_t bad = 0;
  for (int w = 0; w < kRateMsgsPerThread / kRateWindow; ++w) {
    for (int j = 0; j < kRateWindow; ++j) {
      requests[static_cast<std::size_t>(j)] =
          comm.Irecv(&in[static_cast<std::size_t>(j)], 0, kRateBytes, BYTE(), mpcx::ANY_SOURCE,
                     mpcx::ANY_TAG);
    }
    for (int got = 0; got < kRateWindow;) {
      requests[kRateWindow] = waker.request;
      const double t0 = probe::enabled() ? now_us() : 0;
      mpcx::Status status;
      {
        probe::Span span("core.Waitany");
        status = mpcx::Request::Waitany(requests);
      }
      if (probe::enabled()) waitany_us.push_back(now_us() - t0);
      if (status.index == kRateWindow) {  // woken after a stall: re-arm, keep draining
        ++waker.consumed;
        waker.post();
        continue;
      }
      ++got;
      shared.received[static_cast<std::size_t>(waker.thread)].fetch_add(1);
      if (status.index < 0 || status.index >= kRateWindow) {
        ++bad;
        continue;
      }
      const RateMessage& m = in[static_cast<std::size_t>(status.index)];
      const bool ok = m.thread < kRateSenders && m.round == round && m.seq < kRateMsgsPerThread &&
                      m.check == rate_check(spec.seed, m) &&
                      status.Get_tag() == static_cast<int>(m.thread);
      if (!ok) {
        ++bad;
        continue;
      }
      shared.seen[m.thread * kRateMsgsPerThread + m.seq].fetch_add(1);
    }
  }
  const double t = now_us();
  double last = shared.last_delivery.load();
  while (t > last && !shared.last_delivery.compare_exchange_weak(last, t)) {
  }
  return bad;
}

/// Sender rank, after its own sends: wait for the receivers, waking any
/// receiver thread whose Waitany made no progress for 50 ms (a completion
/// that reached no waiter). Returns once every message of the round is in.
void watch_receivers(const mpcx::Intracomm& wake_comm, int peer, RateShared& shared) {
  constexpr double kStallUs = 50'000;
  int last_total = -1;
  double last_change = now_us();
  for (;;) {
    int total = 0;
    for (const auto& r : shared.received) total += r.load();
    if (total == kRateSenders * kRateMsgsPerThread) return;
    if (total != last_total) {
      last_total = total;
      last_change = now_us();
    } else if (now_us() - last_change > kStallUs) {
      for (int t = 0; t < kRateSenders; ++t) {
        if (shared.received[static_cast<std::size_t>(t)].load() >= kRateMsgsPerThread) continue;
        const int one = 1;
        wake_comm.Send(&one, 0, 1, mpcx::types::INT(), peer, t);
        shared.wakes_sent[static_cast<std::size_t>(t)].fetch_add(1);
      }
      last_change = now_us();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void phase_msgrate(const RunSpec& spec, Session& session, mpcx::World& world, RateShared& shared) {
  const mpcx::Intracomm& comm = world.COMM_WORLD();
  const int rank = comm.Rank();
  const int peer = spec.wl->peer;
  const bool sender = rank == 0, receiver = rank == peer, active = sender || receiver;
  std::vector<double> rates_kps;
  std::array<std::vector<double>, kRateSenders> waitany_us;
  std::atomic<std::uint64_t> bad{0};
  std::uint64_t missing = 0, duplicates = 0;
  Counting counting(world, spec.traced);
  const std::unique_ptr<mpcx::Intracomm> wake_comm = comm.Dup();
  // Each waker's slot is the landing buffer of a posted receive: never move one.
  std::vector<Waker> wakers;
  wakers.reserve(kRateSenders);
  for (int t = 0; receiver && t < kRateSenders; ++t) {
    wakers.push_back(Waker{*wake_comm, t, 0, 0, {}});
    wakers.back().post();
  }

  // Each active rank runs two workers: its own thread and one helper. A local
  // fence opens and closes every round, so the helper never outlives it.
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> round{0};
  std::barrier<> fence(2);
  std::exception_ptr helper_error;
  auto work = [&](int thread) {
    if (sender) {
      rate_send(spec, comm, peer, thread, round.load(), shared);
    } else {
      bad += rate_receive(spec, comm, shared, round.load(), wakers[static_cast<std::size_t>(thread)],
                          waitany_us[static_cast<std::size_t>(thread)]);
    }
  };
  Phase phase(world, session, "msgrate", spec.traced);
  Tally helper_tally;
  std::thread helper;
  if (active) {
    helper = std::thread([&] {
      for (;;) {
        fence.arrive_and_wait();
        if (stop.load()) break;
        try {
          const probe::ThreadSends before = probe::thread_sends();
          work(1);
          const probe::ThreadSends after = probe::thread_sends();
          helper_tally.sends += after.sends - before.sends;
          helper_tally.bytes += after.bytes - before.bytes;
        } catch (...) {
          if (!helper_error) helper_error = std::current_exception();
        }
        fence.arrive_and_wait();
      }
    });
  }
  bool in_round = false;
  auto stop_helper = [&] {
    if (!helper.joinable()) return;
    if (in_round) fence.arrive_and_wait();
    stop.store(true);
    fence.arrive_and_wait();
    helper.join();
  };

  const double deadline = now_us() + spec.budget.msgrate_s * 1e6;
  try {
    for (std::uint32_t r = 0; keep_going(comm, deadline); ++r) {
      if (receiver) {
        for (auto& s : shared.seen) s.store(0);
        for (auto& count : shared.received) count.store(0);
      }
      if (rank == 0) {
        shared.first_send.store(0);
        shared.last_delivery.store(0);
      }
      comm.Barrier();  // round state reset before any traffic
      if (active) {
        round.store(r);
        counting.begin();
        in_round = true;
        fence.arrive_and_wait();
        work(0);
        fence.arrive_and_wait();
        in_round = false;
        counting.end("msgrate", receiver ? kRateSenders * kRateMsgsPerThread : 0);
        if (helper_error) std::rethrow_exception(helper_error);
        if (sender) watch_receivers(*wake_comm, peer, shared);
      }
      if (receiver) {
        for (const auto& s : shared.seen) {
          const std::uint8_t count = s.load();
          missing += count == 0;
          duplicates += count > 1 ? count - 1 : 0;
        }
      }
      comm.Barrier();  // every delivery of the round is recorded
      if (rank == 0) {
        const double span_us = shared.last_delivery.load() - shared.first_send.load();
        rates_kps.push_back(1e3 * kRateSenders * kRateMsgsPerThread / span_us);
      }
    }
  } catch (...) {
    stop_helper();
    for (Waker& waker : wakers) waker.request.Cancel();  // their slots die with this frame
    throw;
  }
  stop_helper();
  // Consume every wake-up still in flight, then retire the wake-up receives.
  comm.Barrier();
  for (Waker& waker : wakers) {
    while (waker.consumed < shared.wakes_sent[static_cast<std::size_t>(waker.thread)].load()) {
      waker.request.Wait();
      ++waker.consumed;
      waker.post();
    }
    waker.request.Cancel();
    waker.request.Wait();
  }

  phase.end(static_cast<std::uint64_t>(rates_kps.size()) * kRateSenders * kRateMsgsPerThread);
  session.add_samples("msg_rate_kps", rates_kps);
  for (const auto& w : waitany_us) session.add_samples("waitany_us", w);
  counting.flush(session);
  if (spec.traced) session.add_tally("msgrate", helper_tally);
  if (sender) {
    std::lock_guard<std::mutex> lock(session.mu);
    for (const auto& w : shared.wakes_sent) session.waitany_rescues += static_cast<std::uint64_t>(w.load());
  }
  if (bad != 0) session.fail("msgrate: " + std::to_string(bad.load()) + " corrupt messages");
  if (missing != 0) session.fail("msgrate: " + std::to_string(missing) + " messages missing");
  if (duplicates != 0) session.fail("msgrate: " + std::to_string(duplicates) + " duplicates");
}

// ---- apps: CG ----------------------------------------------------------------------------

/// y = A x for the local rows of the (-1, 2, -1) Laplacian, halos by Sendrecv.
void apply_laplacian(const mpcx::Intracomm& comm, const std::vector<double>& x,
                     std::vector<double>& y) {
  const int rank = comm.Rank(), n = comm.Size();
  const int left = rank > 0 ? rank - 1 : mpcx::PROC_NULL;
  const int right = rank + 1 < n ? rank + 1 : mpcx::PROC_NULL;
  const std::size_t local = x.size();
  double halo_left = 0.0, halo_right = 0.0;
  {
    probe::Span span("core.Sendrecv");
    comm.Sendrecv(&x[0], 0, 1, DOUBLE(), left, 0, &halo_right, 0, 1, DOUBLE(), right, 0);
  }
  {
    probe::Span span("core.Sendrecv");
    comm.Sendrecv(&x[local - 1], 0, 1, DOUBLE(), right, 1, &halo_left, 0, 1, DOUBLE(), left, 1);
  }
  for (std::size_t i = 0; i < local; ++i) {
    const double xm = i > 0 ? x[i - 1] : halo_left;
    const double xp = i + 1 < local ? x[i + 1] : halo_right;
    y[i] = 2.0 * x[i] - xm - xp;
  }
}

double timed_dot(const mpcx::Intracomm& comm, const std::vector<double>& a,
                 const std::vector<double>& b, std::vector<double>& allreduce_us) {
  double local = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  double global = 0.0;
  const double t0 = now_us();
  {
    probe::Span span("core.Allreduce");
    comm.Allreduce(&local, 0, &global, 0, 1, DOUBLE(), mpcx::ops::SUM());
  }
  allreduce_us.push_back(now_us() - t0);
  return global;
}

/// The seeded exact solution x* of round `round`, global index i.
double cg_solution(std::uint64_t seed, std::uint64_t round, int i) {
  return 1.0 + static_cast<double>(mix64(seed ^ (round << 32) ^ static_cast<std::uint64_t>(i)) % 1000) / 1000.0;
}

/// One CG solve of A x = A x*; returns max |x - x*| over all ranks.
double cg_solve(const mpcx::Intracomm& comm, std::uint64_t seed, std::uint64_t round,
                std::vector<double>& iter_us, std::vector<double>& allreduce_us, int& iterations,
                Counting& counting) {
  const std::size_t local = static_cast<std::size_t>(kCgN / comm.Size());
  const int first = comm.Rank() * static_cast<int>(local);
  std::vector<double> exact(local), b(local), x(local, 0.0), ap(local);
  for (std::size_t i = 0; i < local; ++i) exact[i] = cg_solution(seed, round, first + static_cast<int>(i));
  apply_laplacian(comm, exact, b);
  std::vector<double> r = b, p = r;
  std::vector<double> untimed;
  double rr = timed_dot(comm, r, r, untimed);
  const double rr0 = rr;
  iterations = 0;
  counting.begin();
  for (; iterations < 4 * kCgN && rr > 1e-26 * rr0; ++iterations) {
    const double t0 = now_us();
    probe::Span span("cg.iter");
    apply_laplacian(comm, p, ap);
    const double alpha = rr / timed_dot(comm, p, ap, allreduce_us);
    for (std::size_t i = 0; i < local; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = timed_dot(comm, r, r, allreduce_us);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < local; ++i) p[i] = r[i] + beta * p[i];
    iter_us.push_back(now_us() - t0);
  }
  counting.end("cg", comm.Rank() == 0 ? static_cast<std::uint64_t>(iterations) : 0);
  double err_local = 0.0, err = 0.0;
  for (std::size_t i = 0; i < local; ++i) err_local = std::max(err_local, std::abs(x[i] - exact[i]));
  comm.Allreduce(&err_local, 0, &err, 0, 1, DOUBLE(), mpcx::ops::MAX());
  return err;
}

// ---- apps: heat2d -----------------------------------------------------------------------

struct HotSpot {
  int row, col;  // global interior coordinates, 0-based
};

std::vector<HotSpot> hot_spots(std::uint64_t seed) {
  Rng rng{mix64(seed ^ 0x48454154ull)};
  std::vector<HotSpot> spots;
  for (int i = 0; i < kHotSpots; ++i) {
    spots.push_back(HotSpot{static_cast<int>(rng.below(kHeatN)), static_cast<int>(rng.below(kHeatN))});
  }
  return spots;
}

/// A (rows+2) x (cols+2) block with a halo ring; the whole grid when serial.
struct HeatBlock {
  int rows, cols, row0, col0;
  std::vector<double> cells, next;

  HeatBlock(int r, int c, int r0, int c0)
      : rows(r), cols(c), row0(r0), col0(c0),
        cells(static_cast<std::size_t>(r + 2) * (c + 2), 0.0), next(cells) {}
  double& at(int r, int c) { return cells[static_cast<std::size_t>(r) * (cols + 2) + c]; }

  void pin(const std::vector<HotSpot>& spots) {
    for (const HotSpot& s : spots) {
      const int r = s.row - row0 + 1, c = s.col - col0 + 1;
      if (r >= 1 && r <= rows && c >= 1 && c <= cols) at(r, c) = 100.0;
    }
  }
  void reset(const std::vector<HotSpot>& spots) {
    std::fill(cells.begin(), cells.end(), 0.0);
    pin(spots);
  }
  /// One Jacobi step (same operand order as examples/heat2d), then re-pin.
  void jacobi(const std::vector<HotSpot>& spots) {
    for (int r = 1; r <= rows; ++r) {
      for (int c = 1; c <= cols; ++c) {
        next[static_cast<std::size_t>(r) * (cols + 2) + c] =
            0.25 * (at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1));
      }
    }
    cells.swap(next);
    pin(spots);
  }
  double total() {
    double sum = 0.0;
    for (int r = 1; r <= rows; ++r) {
      for (int c = 1; c <= cols; ++c) sum += at(r, c);
    }
    return sum;
  }
};

double serial_heat_total(std::uint64_t seed) {
  const std::vector<HotSpot> spots = hot_spots(seed);
  HeatBlock grid(kHeatN, kHeatN, 0, 0);
  grid.reset(spots);
  for (int s = 0; s < kHeatSteps; ++s) grid.jacobi(spots);
  return grid.total();
}

// ---- apps: collectives ------------------------------------------------------------------

enum class Coll { Allreduce, Bcast, Barrier, Iallreduce };
constexpr std::array<const char*, 4> kCollKeys = {"allreduce_64KiB", "bcast_64KiB", "barrier",
                                                  "iallreduce_64KiB"};

double coll_term(std::uint64_t salt, int i) {
  return static_cast<double>(mix64(salt ^ static_cast<std::uint64_t>(i)) % 1024);
}

/// Run one collective call; returns false when its result is wrong.
bool run_collective(const mpcx::Intracomm& comm, Coll kind, std::uint64_t salt,
                    std::vector<double>& in, std::vector<double>& out, double& us) {
  const int rank = comm.Rank(), size = comm.Size();
  const double weight = rank + 1.0, total = size * (size + 1) / 2.0;
  for (int i = 0; i < kCollDoubles; ++i) {
    in[static_cast<std::size_t>(i)] = weight * coll_term(salt, i);
    out[static_cast<std::size_t>(i)] = kind == Coll::Bcast && rank == 0 ? coll_term(salt, i) : -1.0;
  }
  const double t0 = now_us();
  switch (kind) {
    case Coll::Allreduce: {
      probe::Span span("core.Allreduce_64KiB");
      comm.Allreduce(in.data(), 0, out.data(), 0, kCollDoubles, DOUBLE(), mpcx::ops::SUM());
      break;
    }
    case Coll::Bcast: {
      probe::Span span("core.Bcast_64KiB");
      comm.Bcast(out.data(), 0, kCollDoubles, DOUBLE(), 0);
      break;
    }
    case Coll::Barrier: {
      probe::Span span("core.Barrier");
      comm.Barrier();
      break;
    }
    case Coll::Iallreduce: {
      probe::Span span("core.Iallreduce_64KiB");
      mpcx::Request request =
          comm.Iallreduce(in.data(), 0, out.data(), 0, kCollDoubles, DOUBLE(), mpcx::ops::SUM());
      request.Wait();
      break;
    }
  }
  us = now_us() - t0;
  if (kind == Coll::Barrier) return true;
  const double scale = kind == Coll::Bcast ? 1.0 : total;
  for (int i = 0; i < kCollDoubles; ++i) {
    if (out[static_cast<std::size_t>(i)] != scale * coll_term(salt, i)) return false;
  }
  return true;
}

void phase_apps(const RunSpec& spec, Session& session, mpcx::World& world, double heat_reference) {
  const mpcx::Intracomm& comm = world.COMM_WORLD();
  const int rank = comm.Rank(), size = comm.Size();
  Counting counting(world, spec.traced);

  // heat2d decomposition: 1 x 2 for two ranks so the vector-typed column
  // halos always cross a rank boundary; 2 x 2 for four.
  const std::vector<int> dims = size == 4 ? std::vector<int>{2, 2} : std::vector<int>{1, size};
  const bool periods[2] = {false, false};
  auto cart = comm.Create_cart(dims, periods, /*reorder=*/false);
  const mpcx::CartParms parms = cart->Get();
  const int rows = kHeatN / dims[0], cols = kHeatN / dims[1];
  HeatBlock heat(rows, cols, parms.coords[0] * rows, parms.coords[1] * cols);
  const mpcx::ShiftParms ns = cart->Shift(0, 1), we = cart->Shift(1, 1);
  const mpcx::DatatypePtr column = mpcx::Datatype::vector(static_cast<std::size_t>(rows), 1, cols + 2, DOUBLE());
  const std::vector<HotSpot> spots = hot_spots(spec.seed);

  std::vector<double> cg_us, allreduce8_us, heat_us, coll_in(kCollDoubles), coll_out(kCollDoubles);
  std::array<std::vector<double>, 4> coll_us;
  std::uint64_t ops = 0;

  Phase phase(world, session, "apps", spec.traced);
  const double deadline = now_us() + spec.budget.apps_s * 1e6;
  for (std::uint64_t round = 0; keep_going(comm, deadline); ++round) {
    // CG block.
    int iterations = 0;
    const double err = cg_solve(comm, spec.seed, round, cg_us, allreduce8_us, iterations, counting);
    if (rank == 0 && !(err <= 1e-6)) session.fail("cg: max |x - x*| = " + std::to_string(err));
    ops += static_cast<std::uint64_t>(iterations);

    // heat2d block.
    heat.reset(spots);
    counting.begin();
    for (int step = 0; step < kHeatSteps; ++step) {
      const double t0 = now_us();
      probe::Span span("heat.step");
      {
        probe::Span s("core.Sendrecv");
        cart->Sendrecv(&heat.at(1, 1), 0, cols, DOUBLE(), ns.rank_source, 1, &heat.at(rows + 1, 1), 0,
                       cols, DOUBLE(), ns.rank_dest, 1);
      }
      {
        probe::Span s("core.Sendrecv");
        cart->Sendrecv(&heat.at(rows, 1), 0, cols, DOUBLE(), ns.rank_dest, 2, &heat.at(0, 1), 0, cols,
                       DOUBLE(), ns.rank_source, 2);
      }
      {
        probe::Span s("core.Sendrecv");
        cart->Sendrecv(&heat.at(1, 1), 0, 1, column, we.rank_source, 3, &heat.at(1, cols + 1), 0, 1,
                       column, we.rank_dest, 3);
      }
      {
        probe::Span s("core.Sendrecv");
        cart->Sendrecv(&heat.at(1, cols), 0, 1, column, we.rank_dest, 4, &heat.at(1, 0), 0, 1, column,
                       we.rank_source, 4);
      }
      heat.jacobi(spots);
      heat_us.push_back(now_us() - t0);
    }
    counting.end("heat", rank == 0 ? kHeatSteps : 0);
    ops += kHeatSteps;
    const double local_heat = heat.total();
    double total_heat = 0.0;
    comm.Allreduce(&local_heat, 0, &total_heat, 0, 1, DOUBLE(), mpcx::ops::SUM());
    if (rank == 0 && !(std::abs(total_heat - heat_reference) <= 1e-9 * heat_reference)) {
      session.fail("heat2d: total heat " + std::to_string(total_heat) + " != serial " +
                   std::to_string(heat_reference));
    }

    // Collective block, in a seeded order.
    std::vector<int> calls;
    for (int c = 0; c < 4; ++c) calls.insert(calls.end(), kCollRepeats, c);
    Rng rng{mix64(spec.seed ^ 0x434F4C4Cull ^ (round << 16))};
    rng.shuffle(calls);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto kind = static_cast<Coll>(calls[i]);
      const std::uint64_t salt = mix64(spec.seed ^ (round << 20) ^ i);
      double us = 0;
      counting.begin();
      const bool ok = run_collective(comm, kind, salt, coll_in, coll_out, us);
      counting.end(std::string("coll.") + kCollKeys[static_cast<std::size_t>(kind)], rank == 0 ? 1 : 0);
      coll_us[static_cast<std::size_t>(kind)].push_back(us);
      if (!ok) session.fail(std::string("collective ") + kCollKeys[static_cast<std::size_t>(kind)] + " result wrong");
    }
    ops += calls.size();
  }
  phase.end(rank == 0 ? ops : 0);
  session.add_samples("cg_iter", cg_us);
  session.add_samples("allreduce_8B", allreduce8_us);
  session.add_samples("heat_step", heat_us);
  for (std::size_t k = 0; k < coll_us.size(); ++k) session.add_samples(kCollKeys[k], coll_us[k]);
  counting.flush(session);
}

}  // namespace

// ---- shared helpers --------------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

const Workload* find_workload(std::string_view name) {
  // Rank 0 <-> 1 crosses the simulated node boundary under MPCX_NODE_ID=2,
  // so apps_hyb's ping-pong and message rate ride hybdev's tcp leg.
  static const Workload kWorkloads[] = {
      {"pingpong_shm", "shmdev", 2, 1, nullptr},
      {"threads_tcp", "tcpdev", 2, 1, nullptr},
      {"apps_hyb", "hybdev", 4, 1, "2"},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void Session::add_samples(const std::string& key, const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu);
  auto& dst = samples[key];
  dst.insert(dst.end(), values.begin(), values.end());
}

void Session::absorb(Session& other) {
  std::scoped_lock lock(mu, other.mu);
  for (const auto& [key, values] : other.samples) {
    samples[key].insert(samples[key].end(), values.begin(), values.end());
  }
  for (const auto& [key, tally] : other.tallies) {
    Tally& dst = tallies[key];
    dst.sends += tally.sends;
    dst.bytes += tally.bytes;
    dst.calls += tally.calls;
    for (std::size_t i = 0; i < dst.core.size(); ++i) dst.core[i] += tally.core[i];
  }
  for (const auto& [phase, counts] : other.phase_counts) add(phase_counts[phase], counts);
  for (const auto& [phase, pv] : other.phase_pvars) merge(phase_pvars[phase], pv);
  pids.insert(pids.end(), other.pids.begin(), other.pids.end());
  ops += other.ops;
  failed += other.failed;
  cpu_us += other.cpu_us;
  wall_us += other.wall_us;
  os_threads = std::max(os_threads, other.os_threads);
  waitany_rescues += other.waitany_rescues;
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
}

void Session::add_tally(const std::string& key, const Tally& tally) {
  std::lock_guard<std::mutex> lock(mu);
  Tally& dst = tallies[key];
  dst.sends += tally.sends;
  dst.bytes += tally.bytes;
  dst.calls += tally.calls;
  for (std::size_t i = 0; i < dst.core.size(); ++i) dst.core[i] += tally.core[i];
}

void Session::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu);
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double Session::p(const std::string& key, double q) const {
  std::lock_guard<std::mutex> lock(mu);
  auto it = samples.find(key);
  return it == samples.end() ? std::nan("") : percentile(it->second, q);
}

namespace {
std::atomic<const char*> g_phase{"setup"};
}  // namespace

void set_current_phase(const char* name) { g_phase.store(name); }
const char* current_phase() { return g_phase.load(); }

bool keep_going(const mpcx::Intracomm& comm, double deadline_us) {
  int flag = comm.Rank() == 0 && now_us() < deadline_us ? 1 : 0;
  comm.Bcast(&flag, 0, 1, mpcx::types::INT(), 0);
  return flag != 0;
}

namespace {

mpcx::cluster::Options launch_options(const RunSpec& spec) {
  mpcx::cluster::Options options;
  options.device = spec.wl->device;
  return options;
}

}  // namespace

double measure_setup(const RunSpec& spec, std::vector<std::uint64_t>& pids) {
  std::vector<double> done(static_cast<std::size_t>(spec.wl->ranks), 0.0);
  std::mutex mu;
  const double t0 = now_us();
  mpcx::cluster::launch(spec.wl->ranks, [&](mpcx::World& world) {
    world.COMM_WORLD().Barrier();
    done[static_cast<std::size_t>(world.Rank())] = now_us();
    std::lock_guard<std::mutex> lock(mu);
    pids.push_back(world.engine().device().id().value);
  }, launch_options(spec));
  return (*std::max_element(done.begin(), done.end()) - t0) / 1e6;
}

void run_session(const RunSpec& spec, Session& session) {
  const double heat_reference = serial_heat_total(spec.seed);
  RateShared rate;
  const std::shared_ptr<FloorShared> floor = make_floor_shared();
  const probe::HostTicks host0 = probe::host_ticks();
  mpcx::cluster::launch(spec.wl->ranks, [&](mpcx::World& world) {
    {
      std::lock_guard<std::mutex> lock(session.mu);
      session.pids.push_back(world.engine().device().id().value);
    }
    // Instrumentation is process-wide: switch it between barriers, and off
    // again before Finalize so MPCX prints no per-rank stats summary.
    auto instrument = [&](bool on) {
      world.COMM_WORLD().Barrier();
      if (world.Rank() == 0) probe::set_enabled(on);
      world.COMM_WORLD().Barrier();
    };
    if (spec.traced) instrument(true);
    phase_pingpong(spec, session, world);
    phase_msgrate(spec, session, world, rate);
    phase_apps(spec, session, world, heat_reference);
    if (spec.budget.ladder_s > 0) run_ladder(spec, session, world, *floor);
    if (spec.traced) instrument(false);
  }, launch_options(spec));
  const probe::HostTicks host1 = probe::host_ticks();
  std::lock_guard<std::mutex> lock(session.mu);
  session.steal_share = host1.total > host0.total
                            ? static_cast<double>(host1.steal - host0.steal) /
                                  static_cast<double>(host1.total - host0.total)
                            : 0.0;
}

// ---- serial references (np = 1, no MPCX) -----------------------------------------------

double serial_cg_iter_us(std::uint64_t seed, double seconds) {
  const std::size_t n = kCgN;
  std::vector<double> iter_us;
  const double deadline = now_us() + seconds * 1e6;
  auto apply = [n](const std::vector<double>& x, std::vector<double>& y) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = 2.0 * x[i] - (i > 0 ? x[i - 1] : 0.0) - (i + 1 < n ? x[i + 1] : 0.0);
    }
  };
  auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };
  for (std::uint64_t round = 0; now_us() < deadline; ++round) {
    std::vector<double> exact(n), b(n), x(n, 0.0), ap(n);
    for (std::size_t i = 0; i < n; ++i) exact[i] = cg_solution(seed, round, static_cast<int>(i));
    apply(exact, b);
    std::vector<double> r = b, p = r;
    double rr = dot(r, r);
    const double rr0 = rr;
    for (int it = 0; it < 4 * kCgN && rr > 1e-26 * rr0; ++it) {
      const double t0 = now_us();
      apply(p, ap);
      const double alpha = rr / dot(p, ap);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      const double rr_new = dot(r, r);
      const double beta = rr_new / rr;
      rr = rr_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
      iter_us.push_back(now_us() - t0);
    }
  }
  return percentile(iter_us, 0.5);
}

double serial_heat_step_us(std::uint64_t seed, double seconds) {
  const std::vector<HotSpot> spots = hot_spots(seed);
  HeatBlock grid(kHeatN, kHeatN, 0, 0);
  std::vector<double> step_us;
  const double deadline = now_us() + seconds * 1e6;
  while (now_us() < deadline) {
    grid.reset(spots);
    for (int s = 0; s < kHeatSteps; ++s) {
      const double t0 = now_us();
      grid.jacobi(spots);
      step_us.push_back(now_us() - t0);
    }
  }
  return percentile(step_us, 0.5);
}

}  // namespace perfbench
