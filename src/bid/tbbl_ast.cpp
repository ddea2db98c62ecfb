#include "bid/tbbl_ast.h"

#include <sstream>

#include "common/check.h"

namespace pm::bid {

std::unique_ptr<TbblNode> TbblNode::Leaf(ResourceKind resource,
                                         std::string cluster, double qty) {
  auto node = std::make_unique<TbblNode>();
  node->kind = TbblKind::kLeaf;
  node->resource = resource;
  node->cluster = std::move(cluster);
  node->qty = qty;
  return node;
}

std::unique_ptr<TbblNode> TbblNode::And(
    std::vector<std::unique_ptr<TbblNode>> children) {
  PM_CHECK_MSG(!children.empty(), "and{} needs at least one child");
  auto node = std::make_unique<TbblNode>();
  node->kind = TbblKind::kAnd;
  node->children = std::move(children);
  return node;
}

std::unique_ptr<TbblNode> TbblNode::Xor(
    std::vector<std::unique_ptr<TbblNode>> children) {
  PM_CHECK_MSG(!children.empty(), "xor{} needs at least one child");
  auto node = std::make_unique<TbblNode>();
  node->kind = TbblKind::kXor;
  node->children = std::move(children);
  return node;
}

std::size_t TbblNode::CountAlternatives(std::size_t cap) const {
  PM_CHECK(cap >= 1);
  switch (kind) {
    case TbblKind::kLeaf:
      return 1;
    case TbblKind::kAnd: {
      std::size_t product = 1;
      for (const auto& child : children) {
        const std::size_t n = child->CountAlternatives(cap);
        if (product > cap / n) return cap;  // Saturate without overflow.
        product *= n;
      }
      return product;
    }
    case TbblKind::kXor: {
      std::size_t sum = 0;
      for (const auto& child : children) {
        sum += child->CountAlternatives(cap);
        if (sum >= cap) return cap;
      }
      return sum;
    }
  }
  return 1;
}

std::string TbblNode::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case TbblKind::kLeaf:
      os << pm::ToString(resource) << '@' << cluster << ": " << qty;
      break;
    case TbblKind::kAnd:
    case TbblKind::kXor:
      os << (kind == TbblKind::kAnd ? "and" : "xor") << " { ";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i > 0) os << ' ';
        os << children[i]->ToString();
      }
      os << " }";
      break;
  }
  return os.str();
}

}  // namespace pm::bid
