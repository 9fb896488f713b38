#ifndef CHUNKCACHE_SCHEMA_STAR_SCHEMA_H_
#define CHUNKCACHE_SCHEMA_STAR_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/hierarchy.h"
#include "storage/tuple.h"

namespace chunkcache::schema {

/// One dimension of the star schema: a name plus its hierarchy/domain
/// index. The fact table stores the *base-level ordinal* of each dimension
/// member (the paper's Domain Index translation happens at load time).
struct Dimension {
  std::string name;
  Hierarchy hierarchy;
};

/// Catalog entry for a star schema: the fact table's dimensions and its
/// single additive measure. Dimension order matches the fact tuple's key
/// order.
class StarSchema {
 public:
  StarSchema(std::string fact_name, std::vector<Dimension> dimensions,
             std::string measure_name)
      : fact_name_(std::move(fact_name)),
        dimensions_(std::move(dimensions)),
        measure_name_(std::move(measure_name)) {}

  const std::string& fact_name() const { return fact_name_; }
  const std::string& measure_name() const { return measure_name_; }
  uint32_t num_dims() const {
    return static_cast<uint32_t>(dimensions_.size());
  }
  const Dimension& dimension(uint32_t i) const { return dimensions_[i]; }
  const std::vector<Dimension>& dimensions() const { return dimensions_; }

  /// Index of the dimension called `name`.
  Result<uint32_t> DimensionIndex(const std::string& name) const;

  /// Tuple layout of the fact table.
  storage::TupleDesc tuple_desc() const {
    return storage::TupleDesc{num_dims()};
  }

 private:
  std::string fact_name_;
  std::vector<Dimension> dimensions_;
  std::string measure_name_;
};

}  // namespace chunkcache::schema

#endif  // CHUNKCACHE_SCHEMA_STAR_SCHEMA_H_
