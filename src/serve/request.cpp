#include "serve/request.hpp"

#include <stdexcept>
#include <string>

#include "core/hash.hpp"

namespace cdd::serve {

std::string_view ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kCacheHit:
      return "cache_hit";
    case SolveStatus::kDeadlineExpired:
      return "deadline_expired";
    case SolveStatus::kRejectedQueueFull:
      return "rejected_queue_full";
    case SolveStatus::kRejectedUnknownEngine:
      return "rejected_unknown_engine";
    case SolveStatus::kRejectedInvalidInstance:
      return "rejected_invalid_instance";
    case SolveStatus::kRejectedDeadlineInfeasible:
      return "rejected_deadline_infeasible";
    case SolveStatus::kShedOverload:
      return "shed_overload";
    case SolveStatus::kShuttingDown:
      return "shutting_down";
    case SolveStatus::kShutdown:
      return "shutdown";
    case SolveStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::optional<SolveStatus> SolveStatusFromName(std::string_view name) {
  for (const SolveStatus status :
       {SolveStatus::kOk, SolveStatus::kCacheHit,
        SolveStatus::kDeadlineExpired, SolveStatus::kRejectedQueueFull,
        SolveStatus::kRejectedUnknownEngine,
        SolveStatus::kRejectedInvalidInstance,
        SolveStatus::kRejectedDeadlineInfeasible, SolveStatus::kShedOverload,
        SolveStatus::kShuttingDown, SolveStatus::kShutdown,
        SolveStatus::kFailed}) {
    if (ToString(status) == name) return status;
  }
  return std::nullopt;
}

std::string ValidateRequestInstance(const Instance& instance) {
  try {
    instance.Validate();
    return {};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

std::uint64_t CacheKey(const SolveRequest& request) {
  std::uint64_t h = HashInstance(request.instance);
  h = HashBytes(h, request.engine.data(), request.engine.size());
  h = HashCombine(h, request.options.generations);
  h = HashCombine(h, request.options.seed);
  h = HashCombine(h, request.options.ensemble);
  h = HashCombine(h, request.options.block);
  h = HashCombine(h, request.options.chains);
  h = HashCombine(h, request.options.vshape_init ? 1 : 0);
  h = HashCombine(h, request.options.trajectory_stride);
  h = HashBytes(h, request.options.portfolio.data(),
                request.options.portfolio.size());
  h = HashCombine(h, request.options.race_slice);
  return h;
}

}  // namespace cdd::serve
