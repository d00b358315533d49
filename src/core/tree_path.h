// An immutable, shared tree path (§II-D path embedding).
//
// A tree node's position is the list of node ids from the stream source down
// to itself. Every data message, deactivation and resume-ack carries the
// sender's path, and every neighbor link caches the last one seen. Stored as
// a vector, each of those is a heap copy of the whole list; but a node's path
// is always its parent's path plus itself, so the paths of one tree share
// their prefixes. TreePath stores exactly that: one cons cell per tree
// position {refs, length, self, parent cell}, with the source's cell at the
// root. Relaying, caching or re-sending a path copies one pointer.
//
// Cells are never mutated after construction. Reference counts are atomic
// because messages carrying a path cross shard threads (`[run] shards`):
// increments are relaxed (a copy is made from a reference the copier already
// holds), decrements are acq_rel so the thread that frees a cell has seen
// every other holder's last use of it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/node_id.h"

namespace brisa::core {

class TreePath {
 public:
  /// The empty path (no position).
  TreePath() = default;
  TreePath(const TreePath& other) noexcept : cell_(other.cell_) {
    retain(cell_);
  }
  TreePath(TreePath&& other) noexcept
      : cell_(std::exchange(other.cell_, nullptr)) {}
  TreePath& operator=(const TreePath& other) noexcept {
    if (cell_ != other.cell_) {
      retain(other.cell_);
      release(std::exchange(cell_, other.cell_));
    }
    return *this;
  }
  TreePath& operator=(TreePath&& other) noexcept {
    if (this != &other) {
      release(std::exchange(cell_, std::exchange(other.cell_, nullptr)));
    }
    return *this;
  }
  ~TreePath() { release(cell_); }

  /// This path followed by `self`: one new cell that shares this prefix.
  [[nodiscard]] TreePath extended(net::NodeId self) const {
    retain(cell_);
    const auto length = static_cast<std::uint32_t>(size() + 1);
    return TreePath(new Cell{1, length, self, cell_});
  }

  /// Is this path exactly `prefix` followed by `self`? A pointer compare:
  /// a cell owns a reference to its parent cell, so the parent's address
  /// cannot be freed and reused while this path holds it.
  [[nodiscard]] bool extends(const TreePath& prefix, net::NodeId self) const {
    return cell_ != nullptr && cell_->parent == prefix.cell_ &&
           cell_->self == self;
  }

  /// Does the path include `node`? Walks from the tail to the source.
  [[nodiscard]] bool contains(net::NodeId node) const {
    for (const Cell* cell = cell_; cell != nullptr; cell = cell->parent) {
      if (cell->self == node) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const {
    return cell_ != nullptr ? cell_->length : 0;
  }
  /// The path as a list, source first.
  [[nodiscard]] std::vector<net::NodeId> nodes() const {
    std::vector<net::NodeId> out(size());
    std::size_t i = out.size();
    for (const Cell* cell = cell_; cell != nullptr; cell = cell->parent) {
      out[--i] = cell->self;
    }
    return out;
  }

  void clear() { release(std::exchange(cell_, nullptr)); }

 private:
  struct Cell {
    mutable std::atomic<std::uint32_t> refs;
    std::uint32_t length;
    net::NodeId self;
    /// Owned reference; nullptr at the source.
    const Cell* parent;
  };

  explicit TreePath(const Cell* cell) : cell_(cell) {}

  static void retain(const Cell* cell) {
    if (cell != nullptr) {
      cell->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Frees the cells this was the last holder of, tail first. A loop, not
  /// recursion: a chain as deep as the tree must not grow the stack.
  static void release(const Cell* cell) {
    while (cell != nullptr &&
           cell->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const Cell* parent = cell->parent;
      delete cell;
      cell = parent;
    }
  }

  const Cell* cell_ = nullptr;
};

static_assert(sizeof(TreePath) == 8, "a tree path is one pointer");

}  // namespace brisa::core
