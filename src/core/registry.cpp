#include "core/registry.h"

#include "target/cache_target.h"
#include "target/thor_rd_target.h"

namespace goofi::core {

TargetRegistry& TargetRegistry::Instance() {
  static TargetRegistry* registry = new TargetRegistry();
  return *registry;
}

Status TargetRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) return InvalidArgumentError("target name must not be empty");
  if (!factory) return InvalidArgumentError("null target factory");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, unused] : factories_) {
    if (existing == name) {
      return AlreadyExistsError("target '" + name + "' already registered");
    }
  }
  factories_.emplace_back(name, std::move(factory));
  return Status::Ok();
}

bool TargetRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, unused] : factories_) {
    if (existing == name) return true;
  }
  return false;
}

Result<std::unique_ptr<target::TargetSystemInterface>> TargetRegistry::Create(
    const std::string& name) const {
  Factory factory;
  {
    // Mint outside the lock: building a board is the slow part, and
    // campaign threads should not queue behind each other for it.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [existing, candidate] : factories_) {
      if (existing == name) factory = candidate;
    }
  }
  if (!factory) return NotFoundError("no registered target '" + name + "'");
  return factory();
}

std::vector<std::string> TargetRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, unused] : factories_) names.push_back(name);
  return names;
}

void RegisterBuiltinTargets(TargetRegistry& registry) {
  // Has + Register is not atomic, but a racing duplicate Register fails
  // AlreadyExists under the lock, which is the idempotence we want.
  if (!registry.Has("thor_rd")) {
    (void)registry.Register("thor_rd", []() {
      return std::make_unique<target::ThorRdTarget>();
    });
  }
  if (!registry.Has("thor")) {
    // The predecessor board of [10]: no cache parity checkers.
    (void)registry.Register("thor", []() {
      return std::unique_ptr<target::TargetSystemInterface>(
          target::MakeThorTarget());
    });
  }
  if (!registry.Has("cache_hierarchy")) {
    // Thor RD with access-path injection into the cache arrays.
    (void)registry.Register("cache_hierarchy", []() {
      return std::unique_ptr<target::TargetSystemInterface>(
          target::MakeCacheHierarchyTarget());
    });
  }
}

}  // namespace goofi::core
