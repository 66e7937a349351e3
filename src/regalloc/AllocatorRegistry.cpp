//===- regalloc/AllocatorRegistry.cpp - Allocator factories ----------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocatorRegistry.h"

#include "regalloc/BriggsAllocator.h"
#include "regalloc/CallCostAllocator.h"
#include "regalloc/IteratedCoalescingAllocator.h"
#include "regalloc/OptimisticCoalescingAllocator.h"
#include "regalloc/PriorityAllocator.h"
#include "regalloc/SpillEverythingAllocator.h"

#include <algorithm>
#include <map>

using namespace pdgc;

namespace {

std::map<std::string, AllocatorFactory> &registry() {
  static std::map<std::string, AllocatorFactory> Map = [] {
    // The regalloc-layer allocators seed the registry on first access.
    std::map<std::string, AllocatorFactory> M;
    M["chaitin"] = [] {
      return std::make_unique<BriggsAllocator>(
          BriggsAllocator::Variant::Chaitin);
    };
    M["briggs+aggressive"] = [] {
      return std::make_unique<BriggsAllocator>(
          BriggsAllocator::Variant::Aggressive);
    };
    M["briggs+biased"] = [] {
      return std::make_unique<BriggsAllocator>(
          BriggsAllocator::Variant::Biased);
    };
    M["iterated"] = [] {
      return std::make_unique<IteratedCoalescingAllocator>();
    };
    M["priority"] = [] { return std::make_unique<PriorityAllocator>(); };
    M["optimistic"] = [] {
      return std::make_unique<OptimisticCoalescingAllocator>(
          /*NonVolatileFirst=*/false);
    };
    M["aggressive+volatility"] = [] {
      return std::make_unique<CallCostAllocator>();
    };
    M["spill-everything"] = [] {
      return std::make_unique<SpillEverythingAllocator>();
    };
    return M;
  }();
  return Map;
}

} // namespace

bool pdgc::registerAllocatorFactory(const std::string &Name,
                                    AllocatorFactory Factory) {
  return registry().emplace(Name, std::move(Factory)).second;
}

std::unique_ptr<AllocatorBase>
pdgc::createRegisteredAllocator(const std::string &Name) {
  auto &Map = registry();
  auto It = Map.find(Name);
  return It == Map.end() ? nullptr : It->second();
}

std::vector<std::string> pdgc::registeredAllocatorNames() {
  std::vector<std::string> Names;
  for (const auto &[Name, Factory] : registry())
    Names.push_back(Name);
  return Names;
}
