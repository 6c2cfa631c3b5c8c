// Schema-validated in-memory table with a primary-key index.
//
// One Table corresponds to one SQLite table in the paper's prototype
// (users, accounts, entry values...). Rows are validated against the
// schema on every write; the primary key is unique and indexed.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/value.h"

namespace amnesia::storage {

struct Column {
  std::string name;
  ValueType type;
  bool nullable = false;
};

struct Schema {
  std::vector<Column> columns;
  std::size_t primary_key = 0;  // index into columns

  /// Throws StorageError if the schema itself is malformed.
  void validate() const;

  /// Throws StorageError if `row` does not match the schema.
  void check_row(const std::vector<Value>& row) const;

  std::optional<std::size_t> column_index(const std::string& name) const;
};

using Row = std::vector<Value>;
using Predicate = std::function<bool(const Row&)>;

class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Inserts; throws StorageError on schema mismatch or duplicate key.
  void insert(Row row);

  /// Inserts or replaces the row with the same primary key.
  void upsert(Row row);

  /// Returns the row with primary key `key`, if any.
  std::optional<Row> get(const Value& key) const;

  bool contains(const Value& key) const { return rows_.contains(key); }

  /// Replaces the row with primary key `key`. Returns false if missing.
  bool update(const Value& key, Row row);

  /// Removes by primary key. Returns false if missing.
  bool remove(const Value& key);

  /// Removes every row matching `pred`; returns the count removed.
  std::size_t remove_if(const Predicate& pred);

  /// All rows matching `pred`, in primary-key order. Scans and copies
  /// every match: O(n). Prefer visit_prefix when the rows share a key
  /// prefix.
  std::vector<Row> select(const Predicate& pred) const;

  /// Calls `fn` on every row whose text primary key starts with `prefix`,
  /// in primary-key order, without copying: O(log n + k) for k visited
  /// rows. A table whose primary key is not text visits none.
  void visit_prefix(std::string_view prefix,
                    const std::function<void(const Row&)>& fn) const;

  /// All rows in primary-key order.
  std::vector<Row> all() const;

  void clear();

 private:
  Schema schema_;
  std::map<Value, Row> rows_;  // keyed by primary-key value
};

}  // namespace amnesia::storage
