#pragma once
/// \file fiber.hpp
/// \brief Stackful fibers — the execution vehicle for simulated GPU threads.
///
/// A thread block with `__syncthreads()` needs every one of its threads to
/// be suspendable at the barrier.  OS threads would be far too heavy (the
/// paper's configuration alone is 4 blocks x 192 threads); instead each
/// simulated thread is a fiber that the block runner schedules
/// cooperatively on one host thread.
///
/// On x86-64 a switch is a small assembly routine that saves the
/// callee-saved registers, MXCSR and the x87 control word and swaps the
/// stack pointer: no syscall, no signal-mask change.  Other targets use
/// ucontext, chosen at compile time.  Each stack is an `mmap` with a
/// `PROT_NONE` guard page below it, so its pages are committed only when
/// touched and an overflow faults.  A fiber's entry frame is built once;
/// its entry function loops over the bodies Reset installs, so fibers are
/// pooled and reused across blocks and launches without allocation.  Under
/// ASan and TSan every switch is announced to the sanitizer.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace cdd::sim {

/// A reusable stackful coroutine.
///
/// Lifecycle: Reset(fn) arms the fiber with a body; Resume() runs it until
/// it calls Yield() or the body returns; done() reports completion.
/// Resume()/Yield() must be paired on the same host thread for any single
/// resume, but a Fiber may be resumed from different host threads over its
/// lifetime (no thread-local state survives a yield).
class Fiber {
 public:
  /// \param stack_bytes size of the private stack (at least 16 KiB, rounded
  /// up to whole pages; a guard page is added below it).  64 KiB
  /// comfortably fits the O(n) evaluators, which are iterative and
  /// allocation-free.
  explicit Fiber(std::size_t stack_bytes = 64 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) noexcept;
  Fiber& operator=(Fiber&&) noexcept;

  /// Arms the fiber with a new body.  Must not be running.
  void Reset(std::function<void()> body);

  /// Runs the fiber until Yield() or completion.  Returns true while the
  /// body has more work (yielded), false once it returned.
  bool Resume();

  /// Suspends the currently running fiber (call from inside the body only).
  void Yield();

  bool done() const { return done_; }

  /// Rethrows an exception that escaped the fiber body, if any.
  void RethrowIfFailed();

  struct Impl;  // public so the fiber entry function can reach it

 private:
  std::unique_ptr<Impl> impl_;
  bool done_ = true;
};

/// Grow-only pool of fibers, one per simulated thread slot of a block.
class FiberPool {
 public:
  explicit FiberPool(std::size_t stack_bytes = 64 * 1024)
      : stack_bytes_(stack_bytes) {}

  /// Ensures at least \p count fibers exist and returns the backing vector.
  std::vector<Fiber>& Acquire(std::size_t count);

  /// Destroys all fibers.  Used after an exception escaped a kernel body:
  /// sibling fibers of the failing block are still suspended and cannot be
  /// re-armed, so their stacks are dropped wholesale (objects live on those
  /// stacks are not destructed — same caveat as any stackful-coroutine
  /// abandonment).
  void Clear() { fibers_.clear(); }

 private:
  std::size_t stack_bytes_;
  std::vector<Fiber> fibers_;
};

}  // namespace cdd::sim
