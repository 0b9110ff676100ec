/// \file plan.hpp
/// Conversion plans: a DataDesc tree flattened once, when its factory builds
/// it, into an immutable pre-order array of ops. The binary codecs walk the
/// plan instead of the description tree; nothing in a plan is computed
/// lazily, so concurrent encoders and decoders share it without a lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datadesc/datadesc.hpp"

namespace sg::datadesc {

/// One node of a plan. Ops are in pre-order: a node's first child (a
/// struct's first field, an array's element, a ref's pointee) is the op right
/// after it, and a field's next sibling follows the field's subtree.
struct PlanOp {
  DataDesc::Kind kind;
  CType ctype;             ///< scalars only
  std::uint32_t span;      ///< ops in this node's subtree, itself included
  size_t count;            ///< struct: field count; fixed array: element count
  const std::string* name;   ///< the node's name, for error messages
  const std::string* field;  ///< the struct field this node fills, or nullptr
};

struct Plan {
  std::vector<PlanOp> ops;  ///< ops[0] is the described node itself
  /// The description in PBIO's self-describing format (kind, ctype, name and
  /// children of every node), serialized once here rather than per message.
  std::vector<std::uint8_t> meta;
  /// Upper bound on the wire bytes of every codec and architecture, string
  /// bytes and dynamic-array elements excepted (capped): the encoders'
  /// initial buffer size.
  size_t fixed_bytes = 0;
};

}  // namespace sg::datadesc
