#include "cudasim/device.hpp"

#include "cudasim/exec/host_pool.hpp"
#include "cudasim/stream.hpp"
#include "trace/tracer.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace cdd::sim {

/// Runtime-internal accessor for ThreadCtx's private launch state.
struct ThreadCtxAccess {
  static void Init(ThreadCtx& ctx, Dim3 tidx, Dim3 bidx, Dim3 bdim,
                   Dim3 gdim, std::byte* shared, std::size_t shared_bytes,
                   const DeviceProperties* props) {
    ctx.thread_idx = tidx;
    ctx.block_idx = bidx;
    ctx.block_dim = bdim;
    ctx.grid_dim = gdim;
    ctx.shared_ = shared;
    ctx.shared_bytes_ = shared_bytes;
    ctx.work_ = 0;
    ctx.props_ = props;
  }
  static std::uint64_t Work(const ThreadCtx& ctx) { return ctx.work_; }
};

namespace {

/// One shared virtual export track for modeled device time.  Kernel,
/// transfer and sync events carry TimingModel timestamps (not wall
/// clock), so a Perfetto view of this track IS the paper's per-kernel
/// runtime breakdown (Fig. 11/14/16).  Allocated lazily: a process that
/// never enables tracing never registers it.
std::uint32_t SimTrack() {
  static const std::uint32_t track =
      trace::NewTrack("sim-device (modeled time)");
  return track;
}

std::int64_t SimNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

Dim3 UnlinearizeBlock(Dim3 grid, std::size_t lin) {
  Dim3 idx;
  idx.x = static_cast<std::uint32_t>(lin % grid.x);
  const std::size_t rest = lin / grid.x;
  idx.y = static_cast<std::uint32_t>(rest % grid.y);
  idx.z = static_cast<std::uint32_t>(rest / grid.y);
  return idx;
}

/// Per-worker scratch needed to execute blocks.
struct WorkerState {
  std::vector<ThreadCtx> ctxs;
  std::vector<std::max_align_t> smem;
};

struct BlockResult {
  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
};

/// Executes one block on the calling thread and returns its charge
/// aggregates.  The calling thread's WorkerState is thread-local, so
/// contexts and shared memory are reused across launches and devices.
BlockResult RunOneBlock(Dim3 grid, Dim3 block, std::size_t linear_block,
                        const LaunchOptions& opts,
                        std::span<const KernelFn> phases,
                        const DeviceProperties& props) {
  thread_local WorkerState ws;
  const std::size_t tpb = block.count();
  const Dim3 bidx = UnlinearizeBlock(grid, linear_block);

  // Zeroed dynamic shared memory for this block.
  const std::size_t smem_cells =
      (opts.shared_bytes + sizeof(std::max_align_t) - 1) /
      sizeof(std::max_align_t);
  if (ws.smem.size() < smem_cells) ws.smem.resize(smem_cells);
  if (smem_cells > 0) {
    std::memset(ws.smem.data(), 0, smem_cells * sizeof(std::max_align_t));
  }
  std::byte* smem_ptr = reinterpret_cast<std::byte*>(ws.smem.data());

  // Contexts in linear thread order (x fastest), so ctxs[t] has
  // linear_thread() == t.
  if (ws.ctxs.size() < tpb) ws.ctxs.resize(tpb);
  ThreadCtx* ctx = ws.ctxs.data();
  for (std::uint32_t z = 0; z < block.z; ++z) {
    for (std::uint32_t y = 0; y < block.y; ++y) {
      for (std::uint32_t x = 0; x < block.x; ++x) {
        ThreadCtxAccess::Init(*ctx++, {x, y, z}, bidx, block, grid, smem_ptr,
                              opts.shared_bytes, &props);
      }
    }
  }

  // Every thread finishes a phase before any thread starts the next: the
  // phase boundary is the block barrier.
  for (const KernelFn& phase : phases) {
    for (std::size_t t = 0; t < tpb; ++t) phase(ws.ctxs[t]);
  }

  BlockResult res;
  for (std::size_t t = 0; t < tpb; ++t) {
    const std::uint64_t w = ThreadCtxAccess::Work(ws.ctxs[t]);
    res.total_work += w;
    res.max_work = std::max(res.max_work, w);
  }
  return res;
}

}  // namespace

Device::Device(DeviceProperties props)
    : props_(std::move(props)), model_(props_) {}

Device::~Device() = default;

void Device::set_worker_threads(unsigned workers) {
  workers_ = workers == 0 ? 1u : workers;
}

unsigned Device::worker_threads() const {
  if (workers_ != 0) return workers_;
  return exec_backend_ == exec::ExecBackend::kHostParallel
             ? exec::ActiveExecWorkers()
             : 1u;
}

void Device::ValidateLaunch(Dim3 grid, Dim3 block,
                            std::size_t shared_bytes) const {
  if (grid.count() == 0 || block.count() == 0) {
    throw GpuError("launch: empty grid or block");
  }
  if (block.count() > props_.max_threads_per_block) {
    throw GpuError("launch: " + std::to_string(block.count()) +
                   " threads per block exceeds device limit " +
                   std::to_string(props_.max_threads_per_block));
  }
  if (block.x > props_.max_block_dim_x || block.y > props_.max_block_dim_y ||
      block.z > props_.max_block_dim_z) {
    throw GpuError("launch: block dimension exceeds device limit");
  }
  if (grid.x > props_.max_grid_dim_x) {
    throw GpuError("launch: grid.x exceeds device limit");
  }
  if (shared_bytes > props_.shared_mem_per_block) {
    throw GpuError("launch: " + std::to_string(shared_bytes) +
                   " bytes of shared memory exceeds per-block limit " +
                   std::to_string(props_.shared_mem_per_block));
  }
}

double Device::ExecuteLaunch(Dim3 grid, Dim3 block,
                             const LaunchOptions& opts,
                             std::span<const KernelFn> phases) {
  ValidateLaunch(grid, block, opts.shared_bytes);

  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
  const unsigned cap = worker_threads();
  if (cap <= 1 || grid.count() <= 1) {
    RunBlocksSequential(grid, block, opts, phases, total_work, max_work);
  } else {
    RunBlocksParallel(grid, block, opts, phases, cap, total_work,
                      max_work);
  }

  const LaunchCharge charge{grid, block, total_work, max_work,
                            opts.shared_bytes};
  const double seconds = model_.KernelSeconds(charge);
  profiler_.RecordKernel(opts.name, grid.count(),
                         grid.count() * block.count(), total_work, seconds);
  return seconds;
}

void Device::Launch(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                    std::span<const KernelFn> phases) {
  const double start = sim_time_s_;
  const double seconds = ExecuteLaunch(grid, block, opts, phases);
  sim_time_s_ = start + seconds;
  if (trace::Enabled()) {
    trace::Complete(trace::InternName(opts.name), SimNs(start),
                    SimNs(seconds), SimTrack());
  }
}

void Device::LaunchAsync(Stream& stream, Dim3 grid, Dim3 block,
                         const LaunchOptions& opts, const KernelFn& kernel) {
  if (stream.device_ != this) {
    throw GpuError("LaunchAsync: stream belongs to another device");
  }
  const double seconds = ExecuteLaunch(
      grid, block, opts, std::span<const KernelFn>(&kernel, 1));
  const double start = std::max(stream.ready_at_, sim_time_s_);
  stream.ready_at_ = start + seconds;
  if (trace::Enabled()) {
    trace::Complete(trace::InternName(opts.name), SimNs(start),
                    SimNs(seconds), SimTrack());
  }
}

void Device::RunBlocksSequential(Dim3 grid, Dim3 block,
                                 const LaunchOptions& opts,
                                 std::span<const KernelFn> phases,
                                 std::uint64_t& total_work,
                                 std::uint64_t& max_work) {
  for (std::size_t b = 0; b < grid.count(); ++b) {
    const BlockResult r = RunOneBlock(grid, block, b, opts, phases, props_);
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::RunBlocksParallel(Dim3 grid, Dim3 block,
                               const LaunchOptions& opts,
                               std::span<const KernelFn> phases,
                               unsigned cap,
                               std::uint64_t& total_work,
                               std::uint64_t& max_work) {
  // Blocks fan out over the process-wide persistent pool; each worker's
  // charge aggregates land in a block-indexed slot (disjoint writes) and
  // reduce below in block-index order.  The sums are exact integers, so
  // the reduction — and therefore the modeled time — is bit-identical to
  // the serial backend no matter which worker ran which block.
  std::vector<BlockResult> results(grid.count());
  exec::HostThreadPool::Instance().ParallelFor(
      grid.count(), cap, [&](std::size_t b) {
        results[b] = RunOneBlock(grid, block, b, opts, phases, props_);
      });
  for (const BlockResult& r : results) {
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::Synchronize() {
  // Functionally a no-op (launches are synchronous); charge the fence cost
  // the paper pays after each generation's four kernels (Section VI-D),
  // and join every live stream's timeline.
  for (Stream* stream : streams_) {
    sim_time_s_ = std::max(sim_time_s_, stream->ready_at_);
  }
  if (trace::Enabled()) {
    trace::Complete("sync", SimNs(sim_time_s_),
                    SimNs(props_.launch_overhead_s), SimTrack());
  }
  sim_time_s_ += props_.launch_overhead_s;
}

Stream::Stream(Device& device) : device_(&device) {
  ready_at_ = device.sim_time_s();
  device.streams_.push_back(this);
}

Stream::~Stream() {
  auto& streams = device_->streams_;
  streams.erase(std::remove(streams.begin(), streams.end(), this),
                streams.end());
}

void Stream::Synchronize() {
  device_->sim_time_s_ = std::max(device_->sim_time_s_, ready_at_);
}

void Device::RegisterAlloc(std::size_t bytes, bool constant) {
  if (constant) {
    if (constant_allocated_ + bytes > props_.constant_mem) {
      throw GpuError("constant memory exhausted");
    }
    constant_allocated_ += bytes;
    return;
  }
  if (allocated_ + bytes > props_.global_mem) {
    throw GpuError("device global memory exhausted (" +
                   std::to_string(allocated_ + bytes) + " > " +
                   std::to_string(props_.global_mem) + " bytes)");
  }
  allocated_ += bytes;
}

void Device::ReleaseAlloc(std::size_t bytes, bool constant) noexcept {
  if (constant) {
    constant_allocated_ -= std::min(constant_allocated_, bytes);
  } else {
    allocated_ -= std::min(allocated_, bytes);
  }
}

void Device::RecordH2D(std::size_t bytes) {
  const double seconds = model_.TransferSeconds(bytes, true);
  if (trace::Enabled()) {
    trace::Complete("h2d", SimNs(sim_time_s_), SimNs(seconds), SimTrack());
    trace::CounterSampleAt("h2d.bytes", SimNs(sim_time_s_),
                           static_cast<std::int64_t>(bytes), SimTrack());
  }
  sim_time_s_ += seconds;
  profiler_.RecordTransfer(true, bytes, seconds);
}

void Device::RecordD2H(std::size_t bytes) {
  const double seconds = model_.TransferSeconds(bytes, false);
  if (trace::Enabled()) {
    trace::Complete("d2h", SimNs(sim_time_s_), SimNs(seconds), SimTrack());
    trace::CounterSampleAt("d2h.bytes", SimNs(sim_time_s_),
                           static_cast<std::int64_t>(bytes), SimTrack());
  }
  sim_time_s_ += seconds;
  profiler_.RecordTransfer(false, bytes, seconds);
}

}  // namespace cdd::sim
