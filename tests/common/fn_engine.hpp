#pragma once
/// \file fn_engine.hpp
/// \brief A plain solve function wrapped as a resumable engine, for serve
/// tests that register engines which block, count their calls or fail.

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/instance.hpp"
#include "meta/engine.hpp"
#include "serve/engine_registry.hpp"

namespace cdd::testing {

using SolveFn = std::function<serve::EngineRun(const Instance&,
                                               const serve::EngineOptions&)>;

/// One-shot engine: the first non-empty Step runs the function to
/// completion and Finish returns its outcome.  Its state is all-or-nothing,
/// so a checkpoint carries nothing and Restore is a no-op.
class FnEngine final : public meta::Engine {
 public:
  FnEngine(SolveFn fn, Instance instance, serve::EngineOptions options)
      : fn_(std::move(fn)),
        instance_(std::move(instance)),
        options_(std::move(options)) {}

  meta::StepStatus Step(std::uint64_t units) override {
    if (!run_ && units > 0) run_ = fn_(instance_, options_);
    return run_ ? meta::StepStatus::kDone : meta::StepStatus::kRunning;
  }
  std::uint64_t Remaining() const override { return run_ ? 0 : 1; }
  Cost BestCost() const override {
    return run_ ? run_->result.best_cost : kInfiniteCost;
  }
  std::unique_ptr<meta::EngineCheckpoint> Checkpoint() const override {
    return std::make_unique<meta::EngineCheckpoint>();
  }
  void Restore(const meta::EngineCheckpoint&) override {}
  meta::EngineOutput Finish() override {
    if (!run_) return {};
    return {run_->result, run_->device_seconds};
  }

 private:
  SolveFn fn_;
  Instance instance_;
  serve::EngineOptions options_;
  std::optional<serve::EngineRun> run_;
};

/// Factory registering \p fn with EngineRegistry::RegisterFactory.
inline serve::EngineFactory FnFactory(SolveFn fn) {
  return [fn = std::move(fn)](const Instance& instance,
                              const serve::EngineOptions& options) {
    return std::make_unique<FnEngine>(fn, instance, options);
  };
}

}  // namespace cdd::testing
