// Target-system registry: how the tool knows which target systems are
// available (the paper's GUI lets the user "select a target system";
// our CLI and configs select by name).
//
// Targets register a factory under a unique name — either at startup
// (built-ins) or from a dynamically loaded plugin (core/plugin.h).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "target/fault_injection_algorithms.h"
#include "util/status.h"

namespace goofi::core {

class TargetRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<target::TargetSystemInterface>()>;

  // The process-wide registry (function-local static; the only global
  // mutable state in the library, per DESIGN.md §4). Every member is
  // safe to call from any thread: the daemon's campaign threads mint
  // targets, and register the built-ins, concurrently.
  static TargetRegistry& Instance();

  Status Register(const std::string& name, Factory factory);
  bool Has(const std::string& name) const;
  Result<std::unique_ptr<target::TargetSystemInterface>> Create(
      const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Factory>> factories_;
};

// Register the targets shipped with the library ("thor_rd"). Idempotent.
void RegisterBuiltinTargets(TargetRegistry& registry);

}  // namespace goofi::core
