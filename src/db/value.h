#ifndef RESCQ_DB_VALUE_H_
#define RESCQ_DB_VALUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/fnv.h"

namespace rescq {

/// An interned domain constant. Values are dense indices into a
/// Database's domain table; the mapping to human-readable names lives in
/// the Database.
using Value = int32_t;

/// Identifies one tuple inside a Database: relation index + row index.
/// Tuple ids are stable: deactivating a tuple does not shift others.
struct TupleId {
  int relation = -1;
  int row = -1;

  bool operator==(const TupleId& o) const {
    return relation == o.relation && row == o.row;
  }
  bool operator<(const TupleId& o) const {
    return relation != o.relation ? relation < o.relation : row < o.row;
  }
};

struct TupleIdHash {
  size_t operator()(const TupleId& t) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(static_cast<uint32_t>(t.relation)) << 32) |
        static_cast<uint32_t>(t.row));
  }
};

/// FNV-1a over a value sequence (the shared util/fnv implementation).
/// Keys hashed on hot paths — the database's exact-match row index, the
/// flow constructions' interface nodes — hash their values directly
/// instead of being serialized into string keys.
struct ValuesHash {
  size_t operator()(const std::vector<Value>& values) const {
    Fnv1a h;
    for (Value v : values) h.MixU32(static_cast<uint32_t>(v));
    return static_cast<size_t>(h.digest());
  }
};

}  // namespace rescq

#endif  // RESCQ_DB_VALUE_H_
