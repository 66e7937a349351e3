//===- support/CsrGraph.h - Flat CSR graph storage --------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed-sparse-row building blocks for the graph hot paths, backed
/// by an Arena (support/Arena.h):
///
///  * `CsrRows<T>` — per-node rows carved from one packed slab by the
///    classic two-pass count-then-fill construction, plus bounded
///    mutability: O(1) append with per-node overflow slack, relocation to
///    a fresh arena region on overflow (the abandoned region dies at the
///    next arena reset), and swap-pop. This is what the interference
///    adjacency and the CPG builder use — graphs that are mostly built
///    once but take coalescing-time edge inserts and in-place row
///    compaction.
///
///  * `CsrArray<T>` — the immutable end state: one offset array (N+1
///    entries) plus one packed edge array, compacted from `CsrRows` after
///    construction settles (or transposed from another `CsrArray`).
///    O(degree) contiguous row spans with no per-node pointer chasing;
///    this is what the select phase iterates.
///
/// Everything is trivially-destructible-friendly: rows never run element
/// destructors, so T must be trivially destructible (checked below) —
/// true for node ids and the POD Preference records.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_CSRGRAPH_H
#define PDGC_SUPPORT_CSRGRAPH_H

#include "support/Arena.h"
#include "support/Span.h"

#include <cstring>
#include <type_traits>

namespace pdgc {

/// Mutable per-node rows over arena storage, built with init() (counted
/// capacities, packed slab). Not thread-safe; one owner per arena.
template <typename T> class CsrRows {
  static_assert(std::is_trivially_destructible_v<T>,
                "CsrRows never runs element destructors");

  T **Rows = nullptr;       ///< Per-node region pointer (arena).
  unsigned *Counts = nullptr; ///< Live entries per node.
  unsigned *Caps = nullptr;   ///< Region capacity per node.
  unsigned N = 0;

  /// First region size for a row that overflows a zero capacity.
  static constexpr unsigned LazyInitialCap = 4;

public:
  CsrRows() = default;

  unsigned numNodes() const { return N; }

  /// Two-pass construction, fill phase capacity known: one packed slab of
  /// sum(RowCounts[i] + Slack) entries, rows pre-sliced. Entries are
  /// uninitialized; Counts start at zero and pushes fill in order.
  void init(Arena &A, unsigned NumNodes, const unsigned *RowCounts,
            unsigned Slack) {
    N = NumNodes;
    Rows = A.allocateArray<T *>(N);
    Counts = A.allocateZeroed<unsigned>(N);
    Caps = A.allocateArray<unsigned>(N);
    std::size_t Total = 0;
    for (unsigned I = 0; I != N; ++I) {
      Caps[I] = RowCounts[I] + Slack;
      Total += Caps[I];
    }
    T *Slab = A.allocateArray<T>(Total);
    for (unsigned I = 0; I != N; ++I) {
      Rows[I] = Slab;
      Slab += Caps[I];
    }
  }

  unsigned size(unsigned Node) const {
    assert(Node < N && "CsrRows node out of range");
    return Counts[Node];
  }

  Span<const T> row(unsigned Node) const {
    assert(Node < N && "CsrRows node out of range");
    return Span<const T>(Rows[Node], Counts[Node]);
  }

  Span<T> mutableRow(unsigned Node) {
    assert(Node < N && "CsrRows node out of range");
    return Span<T>(Rows[Node], Counts[Node]);
  }

  /// Appends \p V to \p Node's row; amortized O(1). On overflow the row
  /// relocates to a doubled region at the arena tail (the old region is
  /// abandoned until the next reset). The overflow branch is kept out of
  /// line so the fast path stays small enough to inline into the graph
  /// builders' hot loops — that inlining is worth 2x on the warm
  /// interference rebuild.
  void push(Arena &A, unsigned Node, T V) {
    assert(Node < N && "CsrRows node out of range");
    if (__builtin_expect(Counts[Node] == Caps[Node], 0))
      growRow(A, Node);
    Rows[Node][Counts[Node]++] = V;
  }

private:
  __attribute__((noinline, cold)) void growRow(Arena &A, unsigned Node) {
    const unsigned NewCap = Caps[Node] ? Caps[Node] * 2 : LazyInitialCap;
    T *Fresh = A.allocateArray<T>(NewCap);
    if (Counts[Node] != 0)
      std::memcpy(static_cast<void *>(Fresh), Rows[Node],
                  Counts[Node] * sizeof(T));
    Rows[Node] = Fresh;
    Caps[Node] = NewCap;
    PDGC_STAT("mem", "csr_row_relocations").inc();
  }

public:

  /// Removes entry \p Idx by swapping the last entry into its place.
  void swapPop(unsigned Node, unsigned Idx) {
    assert(Node < N && Idx < Counts[Node] && "CsrRows swapPop out of range");
    Rows[Node][Idx] = Rows[Node][Counts[Node] - 1];
    --Counts[Node];
  }

  void clearRow(unsigned Node) {
    assert(Node < N && "CsrRows node out of range");
    Counts[Node] = 0;
  }

  /// Empties every row while keeping the regions and their capacities: the
  /// warm-rebuild primitive. A rebuild over the same node set pushes into
  /// retained storage and relocates nothing.
  void resetCounts() {
    if (N != 0)
      std::memset(static_cast<void *>(Counts), 0, N * sizeof(unsigned));
  }

  /// \name Raw builder access
  /// The arrays behind the rows, for tight rebuild loops that hoist them
  /// into locals. Element stores through the returned pointers are
  /// unsigned-typed, so a loop that goes through the members instead
  /// makes the compiler assume each store may alias this class's own
  /// metadata and reload it per push — the reloads cost the warm
  /// interference rebuild ~40%. Callers own the invariants: never write
  /// past rawCaps()[I], keep rawCounts() in step with the entries
  /// written, and fall back to push() when a row is full. Invalidated by
  /// init().
  /// @{
  T *const *rawRows() { return Rows; }
  unsigned *rawCounts() { return Counts; }
  const unsigned *rawCaps() const { return Caps; }
  /// @}
};

/// Immutable packed CSR: offsets[N+1] + edges[offsets[N]]. The read-side
/// shape of a settled CsrRows build.
template <typename T> class CsrArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "CsrArray never runs element destructors");

  const T *Edges = nullptr;
  const unsigned *Offsets = nullptr; ///< N+1 entries.
  unsigned N = 0;

public:
  CsrArray() = default;

  /// Packs \p RowsIn into fresh offset+edge arrays carved from \p A.
  static CsrArray compact(Arena &A, const CsrRows<T> &RowsIn) {
    CsrArray G;
    G.N = RowsIn.numNodes();
    unsigned *Offs = A.allocateArray<unsigned>(G.N + 1);
    unsigned Total = 0;
    for (unsigned I = 0; I != G.N; ++I) {
      Offs[I] = Total;
      Total += RowsIn.size(I);
    }
    Offs[G.N] = Total;
    T *Packed = A.allocateArray<T>(Total);
    for (unsigned I = 0; I != G.N; ++I) {
      Span<const T> R = RowsIn.row(I);
      if (!R.empty())
        std::memcpy(static_cast<void *>(Packed + Offs[I]), R.data(),
                    R.size() * sizeof(T));
    }
    G.Offsets = Offs;
    G.Edges = Packed;
    return G;
  }

  /// The reverse of \p G: row B lists every A whose row in \p G holds
  /// B, in ascending A. Rows must hold node ids below G.numNodes().
  static CsrArray transpose(Arena &A, const CsrArray &G) {
    static_assert(std::is_same_v<T, unsigned>, "transpose needs node ids");
    CsrArray R;
    R.N = G.N;
    unsigned *Offs = A.allocateZeroed<unsigned>(R.N + 1);
    const unsigned Total = G.numEdges();
    for (unsigned E = 0; E != Total; ++E)
      ++Offs[G.Edges[E] + 1];
    for (unsigned I = 0; I != R.N; ++I)
      Offs[I + 1] += Offs[I];
    unsigned *Fill = A.allocateArray<unsigned>(R.N);
    if (R.N != 0)
      std::memcpy(Fill, Offs, R.N * sizeof(unsigned));
    unsigned *Packed = A.allocateArray<unsigned>(Total);
    for (unsigned Src = 0; Src != G.N; ++Src)
      for (unsigned Dst : G.row(Src))
        Packed[Fill[Dst]++] = Src;
    R.Offsets = Offs;
    R.Edges = Packed;
    return R;
  }

  unsigned numNodes() const { return N; }

  unsigned numEdges() const { return N == 0 ? 0 : Offsets[N]; }

  Span<const T> row(unsigned Node) const {
    assert(Node < N && "CsrArray node out of range");
    return Span<const T>(Edges + Offsets[Node],
                         Offsets[Node + 1] - Offsets[Node]);
  }
};

} // namespace pdgc

#endif // PDGC_SUPPORT_CSRGRAPH_H
