// planetmarket: AST for the tree-based bidding language.
//
// §II: "users announce bids encapsulating their desired bundles and
// 'willingness to pay' criteria in a tree-based bidding language similar to
// TBBL". Our dialect has two combinators over leaves:
//
//   leaf         cpu@cluster3: 200        one pool, one quantity
//   and { ... }  all children together    (bundle composition)
//   xor { ... }  exactly one child        (indifference alternatives)
//
// Nested freely, e.g. "xor { and { xor {...} ... } ... }". Flattening
// (tbbl_flatten.h) expands a tree into the paper's flat indifference set
// Q_u = {q¹, q², …}.
//
// Statement forms:
//   bid   "name" limit <amount> { node }   π = +amount, quantities as written
//   offer "name" min   <amount> { node }   π = −amount, quantities negated
//                                          (an offer of 500 disk is written
//                                          positively and sold)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace pm::bid {

/// Node kinds of the bidding-language tree.
enum class TbblKind { kLeaf, kAnd, kXor };

/// One AST node. Leaves carry a pool reference and quantity; inner nodes
/// carry children.
struct TbblNode {
  TbblKind kind = TbblKind::kLeaf;

  // Leaf payload. The pool is kept symbolic (kind + cluster name) until
  // flattening, so a parsed file can be re-targeted at any registry.
  ResourceKind resource = ResourceKind::kCpu;
  std::string cluster;
  double qty = 0.0;

  // Inner-node payload.
  std::vector<std::unique_ptr<TbblNode>> children;

  static std::unique_ptr<TbblNode> Leaf(ResourceKind resource,
                                        std::string cluster, double qty);
  static std::unique_ptr<TbblNode> And(
      std::vector<std::unique_ptr<TbblNode>> children);
  static std::unique_ptr<TbblNode> Xor(
      std::vector<std::unique_ptr<TbblNode>> children);

  /// Number of flat alternatives this subtree expands to (product over AND
  /// children, sum over XOR children, 1 for leaves), saturating at `cap`.
  /// Lets the flattener reject combinatorial explosions before expanding.
  std::size_t CountAlternatives(std::size_t cap) const;

  /// Re-renders the subtree in the language's concrete syntax.
  std::string ToString() const;
};

/// One parsed statement: a named bid or offer with its tree.
struct TbblStatement {
  bool is_offer = false;
  std::string name;
  double amount = 0.0;  // The written limit/min (always >= 0 in source).
  std::unique_ptr<TbblNode> root;
};

}  // namespace pm::bid
