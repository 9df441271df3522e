#include "cudasim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <new>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__))
#define CDD_FIBER_X86_ASM 1
#else
#include <ucontext.h>
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDD_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CDD_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CDD_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CDD_FIBER_TSAN 1
#endif
#if defined(CDD_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CDD_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace cdd::sim {

#if defined(CDD_FIBER_X86_ASM)

// A suspended context is its stack pointer; the stack holds the six
// callee-saved integer registers, MXCSR and the x87 control word (the
// System V callee-saved state) under the return address.  No syscall and
// no signal-mask change, unlike glibc's swapcontext.
extern "C" __attribute__((visibility("hidden"))) void cdd_sim_fiber_switch(
    void** save_sp, void* load_sp);
extern "C" __attribute__((visibility("hidden"))) void cdd_sim_fiber_entry();

namespace {

using Context = void*;

// void cdd_sim_fiber_switch(void** save_sp /*rdi*/, void* load_sp /*rsi*/)
// The frame it saves is the frame it restores, so the CFI stays valid on
// both sides of the rsp swap.
__asm__(R"(
  .text
  .p2align 4
  .globl cdd_sim_fiber_switch
  .hidden cdd_sim_fiber_switch
  .type cdd_sim_fiber_switch, @function
cdd_sim_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size cdd_sim_fiber_switch, .-cdd_sim_fiber_switch

  .p2align 4
  .globl cdd_sim_fiber_entry
  .hidden cdd_sim_fiber_entry
  .type cdd_sim_fiber_entry, @function
cdd_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  call cdd_sim_fiber_main
  ud2
  .cfi_endproc
  .size cdd_sim_fiber_entry, .-cdd_sim_fiber_entry
)");

void SwitchContext(Context* save, const Context* load) {
  cdd_sim_fiber_switch(save, *load);
}

#else  // portable fallback: ucontext

namespace {

using Context = ucontext_t;

void SwitchContext(Context* save, const Context* load) {
  if (swapcontext(save, load) != 0) std::terminate();
}

#endif

std::size_t PageSize() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

extern "C" [[noreturn]] __attribute__((visibility("hidden"))) void
cdd_sim_fiber_main(Fiber::Impl* impl);

struct Fiber::Impl {
  Context ctx{};     ///< the fiber's suspended state
  Context caller{};  ///< whoever last resumed it
  void* mapping = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes = 0;
  std::function<void()> body;
  std::exception_ptr error;
  bool finished = true;
#if defined(CDD_FIBER_ASAN)
  void* fiber_fake_stack = nullptr;
  const void* caller_stack_bottom = nullptr;
  std::size_t caller_stack_bytes = 0;
#endif
#if defined(CDD_FIBER_TSAN)
  void* tsan_fiber = nullptr;
  void* tsan_caller = nullptr;
#endif

  explicit Impl(std::size_t requested_bytes);
  ~Impl();
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  char* stack_bottom() const {
    return static_cast<char*>(mapping) + PageSize();
  }
  std::size_t stack_bytes() const { return mapping_bytes - PageSize(); }

  /// Caller side: runs the fiber until it switches back.
  void SwitchIn() {
#if defined(CDD_FIBER_ASAN)
    void* caller_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&caller_fake_stack, stack_bottom(),
                                   stack_bytes());
#endif
#if defined(CDD_FIBER_TSAN)
    tsan_caller = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
    SwitchContext(&caller, &ctx);
#if defined(CDD_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr);
#endif
  }

  /// Fiber side: suspends back to the caller of SwitchIn.
  void SwitchOut() {
#if defined(CDD_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&fiber_fake_stack, caller_stack_bottom,
                                   caller_stack_bytes);
#endif
#if defined(CDD_FIBER_TSAN)
    __tsan_switch_to_fiber(tsan_caller, 0);
#endif
    SwitchContext(&ctx, &caller);
    Arrived();
  }

  /// Fiber side, on every arrival: records the caller's stack so SwitchOut
  /// can announce it (the caller may be another host thread each time).
  /// The fake stack is still null on the very first arrival, as ASan wants.
  void Arrived() {
#if defined(CDD_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(fiber_fake_stack, &caller_stack_bottom,
                                    &caller_stack_bytes);
#endif
  }
};

/// The fiber's whole life: each Reset installs a body, each pass of the
/// loop runs one to completion and parks at the caller.  The initial frame
/// is built once, in the constructor.
extern "C" [[noreturn]] void cdd_sim_fiber_main(Fiber::Impl* impl) {
  impl->Arrived();
  for (;;) {
    try {
      impl->body();
    } catch (...) {
      impl->error = std::current_exception();
    }
    impl->finished = true;
    impl->SwitchOut();
  }
}

namespace {

#if !defined(CDD_FIBER_X86_ASM)
/// makecontext only passes ints; split a pointer across two of them.
void Trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  cdd_sim_fiber_main(reinterpret_cast<Fiber::Impl*>(bits));
}
#endif

}  // namespace

Fiber::Impl::Impl(std::size_t requested_bytes) {
  // The stack is mapped, not allocated, so its pages are committed only
  // when touched; the PROT_NONE page below it turns an overflow into a
  // fault instead of silent heap corruption.
  const std::size_t page = PageSize();
  const std::size_t wanted =
      requested_bytes < 16 * 1024 ? 16 * 1024 : requested_bytes;
  mapping_bytes = page + (wanted + page - 1) / page * page;
  mapping = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(mapping, page, PROT_NONE) != 0) {
    munmap(mapping, mapping_bytes);
    throw std::bad_alloc();
  }

#if defined(CDD_FIBER_X86_ASM)
  // The frame cdd_sim_fiber_switch pops on first entry: control words,
  // r15..r12 (r12 carries `this`), rbx, rbp, then the return address.  It
  // sits so that after the `ret` into the entry stub rsp is 16-byte
  // aligned at its `call`, as the ABI requires.
  auto* top = reinterpret_cast<std::uint64_t*>(
      (reinterpret_cast<std::uintptr_t>(stack_bottom() + stack_bytes())) &
      ~std::uintptr_t{15});
  std::uint64_t* frame = top - 9;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = fpu_cw;
  frame[1] = mxcsr;
  frame[2] = 0;                                        // r15
  frame[3] = 0;                                        // r14
  frame[4] = 0;                                        // r13
  frame[5] = reinterpret_cast<std::uintptr_t>(this);  // r12
  frame[6] = 0;                                        // rbx
  frame[7] = 0;                                        // rbp
  frame[8] = reinterpret_cast<std::uintptr_t>(&cdd_sim_fiber_entry);
  ctx = frame;
#else
  if (getcontext(&ctx) != 0) {
    munmap(mapping, mapping_bytes);
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx.uc_stack.ss_sp = stack_bottom();
  ctx.uc_stack.ss_size = stack_bytes();
  ctx.uc_link = nullptr;  // cdd_sim_fiber_main never returns
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx, reinterpret_cast<void (*)()>(&Trampoline), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
#endif
#if defined(CDD_FIBER_TSAN)
  tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::Impl::~Impl() {
#if defined(CDD_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber);
#endif
#if defined(CDD_FIBER_ASAN)
  // Frames still live on this stack left redzones in the shadow; clear
  // them so a later mapping at the same address starts clean.
  __asan_unpoison_memory_region(stack_bottom(), stack_bytes());
#endif
  munmap(mapping, mapping_bytes);
}

Fiber::Fiber(std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>(stack_bytes)) {}

Fiber::~Fiber() = default;
Fiber::Fiber(Fiber&&) noexcept = default;
Fiber& Fiber::operator=(Fiber&&) noexcept = default;

void Fiber::Reset(std::function<void()> body) {
  if (!done_) {
    throw std::logic_error("Fiber::Reset while fiber is still running");
  }
  impl_->body = std::move(body);
  impl_->error = nullptr;
  impl_->finished = false;
  done_ = false;
}

bool Fiber::Resume() {
  if (done_) {
    throw std::logic_error("Fiber::Resume on a finished fiber");
  }
  impl_->SwitchIn();
  done_ = impl_->finished;
  return !done_;
}

void Fiber::Yield() { impl_->SwitchOut(); }

void Fiber::RethrowIfFailed() {
  if (impl_->error) {
    std::exception_ptr err = impl_->error;
    impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

std::vector<Fiber>& FiberPool::Acquire(std::size_t count) {
  while (fibers_.size() < count) {
    fibers_.emplace_back(stack_bytes_);
  }
  return fibers_;
}

}  // namespace cdd::sim
