// Layer-stack ladder: the same ping-pong timed at each layer of the stack,
// the live version of the paper's mpjdev-vs-MPJ-Express comparison.
//   floor         raw transport, no MPCX code: loopback TCP, or memcpy + flag
//   xdev          Device::send_segments / irecv_direct on a private context
//   mpdev         Engine::send_segments / irecv_direct on the same context
//   core          Comm::Send / Irecv, contiguous BYTE (zero-copy path)
//   core_derived  the same bytes as a vector datatype (packed by bufx)
//   core_traced   core with prof::set_trace_path on
// Each sample is half a round trip timed on rank 0.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "bufx/buffer.hpp"
#include "core/intracomm.hpp"
#include "core/world.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using mpcx::types::BYTE;

/// Above every context a communicator can be given in this run (contexts are
/// allocated upward from 2, two per communicator).
constexpr int kLadderContext = 1 << 20;
constexpr int kLadderTag = 7;

enum Layer { kFloor, kXdev, kMpdev, kCore, kCoreDerived, kCoreTraced, kLayers };
constexpr std::array<const char*, kLayers> kLayerNames = {"floor", "xdev", "mpdev",
                                                          "core", "core_derived", "core_traced"};
constexpr std::array<std::size_t, 3> kSizes = {8, 16 << 10, 1 << 20};
constexpr std::array<const char*, 3> kSizeNames = {"8B", "16KiB", "1MiB"};
constexpr std::array<int, 3> kReps = {100, 30, 4};  // round trips per cell

void io_all(int fd, std::byte* data, std::size_t n, bool write) {
  while (n > 0) {
    const ssize_t got = write ? ::write(fd, data, n) : ::read(fd, data, n);
    if (got <= 0) throw std::runtime_error("ladder floor: loopback socket I/O failed");
    data += got;
    n -= static_cast<std::size_t>(got);
  }
}

void wait_for(const std::atomic<std::uint64_t>& flag, std::uint64_t value) {
  for (int spins = 0; flag.load(std::memory_order_acquire) != value; ++spins) {
    if (spins > 2000) std::this_thread::yield();
  }
}

/// A loopback TCP connection: fd[0] for rank 0, fd[1] for the peer.
struct LoopbackPair {
  int fd[2] = {-1, -1};
  LoopbackPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool ok = listener >= 0 &&
                    ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
                    ::listen(listener, 1) == 0 &&
                    ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (ok) {
      fd[1] = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd[1] >= 0 && ::connect(fd[1], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fd[0] = ::accept(listener, nullptr, nullptr);
      }
    }
    if (listener >= 0) ::close(listener);
    if (fd[0] < 0 || fd[1] < 0) {
      close_all();
      throw std::runtime_error("ladder floor: cannot open a loopback TCP connection");
    }
    const int one = 1;
    for (const int f : fd) ::setsockopt(f, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~LoopbackPair() { close_all(); }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;
  void close_all() {
    for (int& f : fd) {
      if (f >= 0) ::close(f);
      f = -1;
    }
  }
};

/// Two shared slots and two sequence flags: copy in, publish, copy out.
struct ShmPair {
  alignas(64) std::atomic<std::uint64_t> ping{0};
  alignas(64) std::atomic<std::uint64_t> pong{0};
  std::vector<std::byte> fwd = std::vector<std::byte>(kSizes.back());
  std::vector<std::byte> bwd = std::vector<std::byte>(kSizes.back());
};

}  // namespace

/// Cross-rank state of the ladder floor; rank 0 creates it, the peer uses it.
struct FloorShared {
  std::unique_ptr<LoopbackPair> tcp;
  ShmPair shm;
};

std::shared_ptr<FloorShared> make_floor_shared() { return std::make_shared<FloorShared>(); }

void run_ladder(const RunSpec& spec, Session& session, mpcx::World& world, FloorShared& floor) {
  const mpcx::Intracomm& comm = world.COMM_WORLD();
  const int rank = comm.Rank();
  const int peer = spec.wl->peer;
  const bool active = rank == 0 || rank == peer;
  const int other = rank == 0 ? peer : 0;
  const bool tcp_floor = std::string_view(spec.wl->device) != "shmdev";
  mpcx::mpdev::Engine& engine = world.engine();
  mpcx::xdev::Device& device = engine.device();
  const mpcx::xdev::ProcessID other_pid = engine.pid_of(other);

  comm.Barrier();
  if (rank == 0) {
    set_current_phase("ladder");
    probe::set_enabled(false);  // the ladder measures the layers bare
    if (tcp_floor) floor.tcp = std::make_unique<LoopbackPair>();
  }
  comm.Barrier();

  const std::size_t max = kSizes.back();
  std::vector<std::byte> ping(2 * max), back(2 * max), echo(2 * max);
  Rng fill{mix64(spec.seed ^ 0x4C41444Full)};
  for (std::byte& b : ping) b = static_cast<std::byte>(fill.next());
  std::array<std::array<std::vector<double>, 3>, kLayers> samples;
  std::uint64_t seq = 0, failed = 0;
  const std::string mpcx_trace = spec.out_dir + "/mpcx-trace-" + spec.wl->name + "-" +
                                 std::to_string(spec.seed) + ".json";

  // One round trip at `layer`, `n` bytes; on rank 0 returns the echo check.
  auto round_trip = [&](int layer, std::size_t k) -> bool {
    const std::size_t n = kSizes[k];
    const int count = static_cast<int>(n);
    std::array<std::byte, mpcx::buf::Buffer::kSectionHeaderBytes> hdr_out{}, hdr_in{};
    mpcx::buf::encode_section_header(hdr_out, mpcx::buf::TypeCode::Byte, static_cast<std::uint32_t>(n));
    std::byte* out = rank == 0 ? ping.data() : echo.data();
    std::byte* in = rank == 0 ? back.data() : echo.data();
    const mpcx::xdev::SendSegment seg{out, n};
    const mpcx::xdev::RecvSpan span{hdr_in.data(), in, n};
    // Derived: n bytes as blocks of `block` bytes, every other block of a 2n buffer.
    const std::size_t block = std::min<std::size_t>(64, n / 2);
    ++seq;
    if (rank == 0) {  // a per-round-trip stamp, so a stale buffer never passes the check
      std::memcpy(out, &seq, sizeof(seq));
      std::memcpy(out + n - sizeof(seq), &seq, sizeof(seq));
    }
    switch (layer) {
      case kFloor:
        if (tcp_floor) {
          const int fd = floor.tcp->fd[rank == 0 ? 0 : 1];
          if (rank == 0) {
            io_all(fd, out, n, true);
            io_all(fd, in, n, false);
          } else {
            io_all(fd, in, n, false);
            io_all(fd, out, n, true);
          }
        } else if (rank == 0) {
          std::memcpy(floor.shm.fwd.data(), out, n);
          floor.shm.ping.store(seq, std::memory_order_release);
          wait_for(floor.shm.pong, seq);
          std::memcpy(in, floor.shm.bwd.data(), n);
        } else {
          wait_for(floor.shm.ping, seq);
          std::memcpy(in, floor.shm.fwd.data(), n);
          std::memcpy(floor.shm.bwd.data(), out, n);
          floor.shm.pong.store(seq, std::memory_order_release);
        }
        break;
      case kXdev:
        if (rank == 0) {
          mpcx::xdev::DevRequest reply = device.irecv_direct(span, other_pid, kLadderTag, kLadderContext);
          device.send_segments(hdr_out, std::span(&seg, 1), other_pid, kLadderTag, kLadderContext);
          const mpcx::xdev::DevStatus status = reply->wait();
          if (status.error != mpcx::ErrCode::Success || !status.direct) return false;
        } else {
          device.recv_direct(span, other_pid, kLadderTag, kLadderContext);
          device.send_segments(hdr_out, std::span(&seg, 1), other_pid, kLadderTag, kLadderContext);
        }
        break;
      case kMpdev:
        if (rank == 0) {
          mpcx::mpdev::Request reply = engine.irecv_direct(span, other, kLadderTag, kLadderContext);
          engine.send_segments(hdr_out, std::span(&seg, 1), other, kLadderTag, kLadderContext);
          const mpcx::mpdev::Status status = reply.wait();
          if (status.error != mpcx::ErrCode::Success || !status.direct) return false;
        } else {
          engine.recv_direct(span, other, kLadderTag, kLadderContext);
          engine.send_segments(hdr_out, std::span(&seg, 1), other, kLadderTag, kLadderContext);
        }
        break;
      case kCore:
      case kCoreTraced:
        if (rank == 0) {
          mpcx::Request reply = comm.Irecv(in, 0, count, BYTE(), other, kLadderTag);
          comm.Send(out, 0, count, BYTE(), other, kLadderTag);
          reply.Wait();
        } else {
          comm.Recv(in, 0, count, BYTE(), other, kLadderTag);
          comm.Send(out, 0, count, BYTE(), other, kLadderTag);
        }
        break;
      case kCoreDerived: {
        const mpcx::DatatypePtr strided = mpcx::Datatype::vector(
            n / block, block, static_cast<std::ptrdiff_t>(2 * block), BYTE());
        if (rank == 0) {
          mpcx::Request reply = comm.Irecv(in, 0, 1, strided, other, kLadderTag);
          comm.Send(out, 0, 1, strided, other, kLadderTag);
          reply.Wait();
        } else {
          comm.Recv(in, 0, 1, strided, other, kLadderTag);
          comm.Send(out, 0, 1, strided, other, kLadderTag);
        }
        if (rank != 0) return true;
        for (std::size_t off = 0; off < 2 * n; off += 2 * block) {
          if (std::memcmp(in + off, out + off, block) != 0) return false;
        }
        return true;
      }
    }
    return rank != 0 || std::memcmp(in, out, n) == 0;
  };

  const double deadline = now_us() + spec.budget.ladder_s * 1e6;
  for (std::uint64_t pass = 0; keep_going(comm, deadline); ++pass) {
    Rng rng{mix64(spec.seed ^ 0x4C4144ull ^ pass)};
    std::vector<std::size_t> order = {0, 1, 2};
    rng.shuffle(order);
    for (const std::size_t k : order) {
      for (int layer = 0; layer < kLayers; ++layer) {
        if (layer == kCoreTraced) {
          comm.Barrier();
          if (rank == 0) mpcx::prof::set_trace_path(mpcx_trace);
          comm.Barrier();
        }
        for (int i = 0; active && i < kReps[k]; ++i) {
          const double t0 = now_us();
          const bool ok = round_trip(layer, k);
          if (rank == 0) samples[static_cast<std::size_t>(layer)][k].push_back((now_us() - t0) / 2);
          failed += ok ? 0 : 1;
        }
        if (layer == kCoreTraced) {
          comm.Barrier();
          if (rank == 0) mpcx::prof::set_trace_path("");
          comm.Barrier();
        }
      }
    }
  }
  comm.Barrier();
  if (rank == 0) {
    mpcx::prof::dump_trace(mpcx_trace);
    floor.tcp.reset();
    for (int layer = 0; layer < kLayers; ++layer) {
      for (std::size_t k = 0; k < kSizes.size(); ++k) {
        session.add_samples(std::string("stack.") + kLayerNames[static_cast<std::size_t>(layer)] +
                                "." + kSizeNames[k] + "_us",
                            samples[static_cast<std::size_t>(layer)][k]);
      }
    }
    for (std::uint64_t i = 0; i < failed; ++i) session.fail("ladder: echoed payload differs");
  }
}

}  // namespace perfbench
