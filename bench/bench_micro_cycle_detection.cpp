// §II-D micro-benchmark: exact path embedding vs Bloom filters for cycle
// detection.
//
// Regenerates the paper's metadata arithmetic (1e6 nodes, view 8: a 336-bit
// embedded path vs a 28,755,176-bit Bloom filter at p=1e-6) and measures the
// runtime cost of membership checks for both.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/messages.h"
#include "core/tree_path.h"
#include "net/node_id.h"
#include "util/bloom.h"

namespace {

using brisa::net::NodeId;

std::vector<NodeId> make_path(std::size_t length) {
  std::vector<NodeId> path;
  path.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    path.emplace_back(static_cast<std::uint32_t>(i * 2654435761u));
  }
  return path;
}

/// Path-embedding membership check (what every BRISA reception performs).
void BM_PathEmbeddingCheck(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  const std::vector<NodeId> path = make_path(length);
  const NodeId probe(0xdeadbeef);
  for (auto _ : state) {
    const bool found =
        std::find(path.begin(), path.end(), probe) != path.end();
    benchmark::DoNotOptimize(found);
  }
  state.SetLabel(std::to_string(length * brisa::net::kWireIdBytes * 8) +
                 " bits on the wire");
}
BENCHMARK(BM_PathEmbeddingCheck)->Arg(7)->Arg(10)->Arg(20);

/// Bloom-filter membership check at the paper's 1e-6 false-positive target.
void BM_BloomFilterCheck(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  brisa::util::BloomFilter filter =
      brisa::util::BloomFilter::with_capacity(population, 1e-6);
  for (std::size_t i = 0; i < population; ++i) {
    filter.insert(i * 0x9e3779b97f4a7c15ULL);
  }
  std::uint64_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.may_contain(probe));
    probe += 0x789abcdeULL;
  }
  state.SetLabel(std::to_string(filter.bit_count()) + " bits / " +
                 std::to_string(filter.hash_count()) + " hashes");
}
BENCHMARK(BM_BloomFilterCheck)->Arg(1000)->Arg(100000)->Arg(1000000);

/// Bloom-filter insertion (per relayed message in the alternative design).
void BM_BloomFilterInsert(benchmark::State& state) {
  brisa::util::BloomFilter filter =
      brisa::util::BloomFilter::with_capacity(
          static_cast<std::size_t>(state.range(0)), 1e-6);
  std::uint64_t key = 1;
  for (auto _ : state) {
    filter.insert(key++);
  }
}
BENCHMARK(BM_BloomFilterInsert)->Arg(100000);

/// The same list as a shared TreePath (source first).
brisa::core::TreePath make_tree_path(std::size_t length) {
  brisa::core::TreePath path;
  for (const NodeId id : make_path(length)) path = path.extended(id);
  return path;
}

/// Path relay cost, the per-hop cost of path embedding: a relayed message
/// copies the sender's path (one pointer) and a node adopting a new parent
/// extends it by one cell.
void BM_PathRelayAppend(benchmark::State& state) {
  const brisa::core::TreePath path =
      make_tree_path(static_cast<std::size_t>(state.range(0)));
  const NodeId self(42);
  for (auto _ : state) {
    const brisa::core::TreePath relayed = path;
    const brisa::core::TreePath adopted = relayed.extended(self);
    benchmark::DoNotOptimize(adopted.size());
  }
}
BENCHMARK(BM_PathRelayAppend)->Arg(7)->Arg(20);

/// The TreePath membership check a reception performs: a walk of the
/// chain's cells instead of a scan of one contiguous list.
void BM_TreePathContains(benchmark::State& state) {
  const brisa::core::TreePath path =
      make_tree_path(static_cast<std::size_t>(state.range(0)));
  const NodeId probe(0xdeadbeef);
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.contains(probe));
  }
}
BENCHMARK(BM_TreePathContains)->Arg(7)->Arg(20);

/// PositionInfo wire-size arithmetic for both structure modes.
void BM_MetadataWireSize(benchmark::State& state) {
  brisa::core::PositionInfo position;
  position.known = true;
  position.path = make_tree_path(static_cast<std::size_t>(state.range(0)));
  position.depth = 7;
  std::size_t total = 0;
  for (auto _ : state) {
    total += position.wire_bytes(brisa::core::StructureMode::kTree);
    total += position.wire_bytes(brisa::core::StructureMode::kDag);
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_MetadataWireSize)->Arg(7);

}  // namespace

int main(int argc, char** argv) {
  // Print the paper's §II-D arithmetic before the timing runs.
  const std::size_t n = 1'000'000;
  const double height = std::log(static_cast<double>(n)) / std::log(8.0);
  const auto path_bits = static_cast<std::size_t>(
      std::ceil(height) * brisa::net::kWireIdBytes * 8);
  const brisa::util::BloomSizing sizing =
      brisa::util::optimal_bloom_sizing(n, 1e-6);
  std::printf("=== §II-D metadata comparison at N=1e6, view 8 ===\n");
  std::printf("tree height ~ log8(1e6) = %.2f levels\n", height);
  std::printf("path embedding: %zu bits (paper: 336), exact\n", path_bits);
  std::printf("bloom filter:   %zu bits (paper: 28,755,176), fp=%.2g, %zu hashes\n",
              sizing.bits, sizing.false_positive, sizing.hash_count);
  std::printf("ratio: %.0fx more metadata for the probabilistic filter\n\n",
              static_cast<double>(sizing.bits) /
                  static_cast<double>(path_bits));

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
