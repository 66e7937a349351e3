//===- bench/BenchCommon.cpp - Shared benchmark harness ---------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/PDGCRegistration.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/OptimisticCoalescingAllocator.h"
#include "support/Debug.h"
#include "support/ThreadPool.h"

using namespace pdgc;

std::unique_ptr<AllocatorBase>
pdgc::makeAllocatorByName(const std::string &FullName) {
  registerPDGCAllocators();

  std::string Name = FullName;
  bool NonVolatileFirst = false;
  if (auto Pos = Name.find("#nvf"); Pos != std::string::npos) {
    NonVolatileFirst = true;
    Name.erase(Pos);
  }

  // The #nvf variants are constructed directly; everything else resolves
  // through the allocator registry (which the fallback driver and the
  // fuzzer also use).
  if (NonVolatileFirst) {
    if (Name == "briggs+aggressive")
      return std::make_unique<BriggsAllocator>(
          BriggsAllocator::Variant::Aggressive, /*NonVolatileFirst=*/true);
    if (Name == "briggs+biased")
      return std::make_unique<BriggsAllocator>(
          BriggsAllocator::Variant::Biased, /*NonVolatileFirst=*/true);
    if (Name == "optimistic")
      return std::make_unique<OptimisticCoalescingAllocator>(
          /*NonVolatileFirst=*/true);
  }
  std::unique_ptr<AllocatorBase> Allocator = createRegisteredAllocator(Name);
  pdgc_check(Allocator != nullptr,
             ("unknown allocator name: " + FullName).c_str());
  return Allocator;
}

namespace {

void foldOutcome(SuiteResult &R, const AllocationOutcome &Out,
                 const SimulatedCost &Cost) {
  ++R.Functions;
  R.OriginalMoves += Out.OriginalMoves;
  R.RemainingMoves += Out.remainingMoves();
  R.EliminatedMoves += Out.eliminatedMoves();
  R.SpillInstructions += Out.SpillInstructions;
  R.SpilledRanges += Out.SpilledRanges;
  R.Rounds += Out.Rounds;
  R.Cost += Cost;
}

} // namespace

SuiteResult pdgc::runSuiteAllocation(const WorkloadSuite &Suite,
                                     const TargetDesc &Target,
                                     AllocatorBase &Allocator) {
  SuiteResult R;
  for (unsigned I = 0, E = Suite.Functions.size(); I != E; ++I) {
    std::unique_ptr<Function> F = Suite.generate(I, Target);
    AllocationOutcome Out = allocate(*F, Target, Allocator);
    foldOutcome(R, Out, simulateCost(*F, Target, Out.Assignment));
  }
  return R;
}

SuiteResult pdgc::runSuiteAllocation(const WorkloadSuite &Suite,
                                     const TargetDesc &Target,
                                     const std::string &AllocatorName,
                                     unsigned Jobs) {
  const unsigned N = static_cast<unsigned>(Suite.Functions.size());

  // Everything shared is prepared sequentially up front: the functions
  // (the generator is not specified to be thread-safe) and one allocator
  // per item (makeAllocatorByName seeds the registries, which must not
  // race with worker-side lookups).
  std::vector<std::unique_ptr<Function>> Fns(N);
  std::vector<std::unique_ptr<AllocatorBase>> Allocs(N);
  for (unsigned I = 0; I != N; ++I) {
    Fns[I] = Suite.generate(I, Target);
    Allocs[I] = makeAllocatorByName(AllocatorName);
  }

  struct ItemResult {
    AllocationOutcome Out;
    SimulatedCost Cost;
  };
  std::vector<ItemResult> Items(N);

  ThreadPool Pool(Jobs);
  Pool.parallelFor(N, [&](unsigned I) {
    Items[I].Out = allocate(*Fns[I], Target, *Allocs[I]);
    Items[I].Cost = simulateCost(*Fns[I], Target, Items[I].Out.Assignment);
  });

  // Folding in index order keeps the aggregate — including the
  // floating-point cost sum — identical across job counts.
  SuiteResult R;
  for (const ItemResult &Item : Items)
    foldOutcome(R, Item.Out, Item.Cost);
  return R;
}
