#include "storage/table.h"

#include <set>

#include "common/error.h"

namespace amnesia::storage {

void Schema::validate() const {
  if (columns.empty()) throw StorageError("Schema: no columns");
  if (primary_key >= columns.size()) {
    throw StorageError("Schema: primary key index out of range");
  }
  if (columns[primary_key].nullable) {
    throw StorageError("Schema: primary key column must not be nullable");
  }
  std::set<std::string> names;
  for (const auto& col : columns) {
    if (col.name.empty()) throw StorageError("Schema: empty column name");
    if (col.type == ValueType::kNull) {
      throw StorageError("Schema: column type may not be null");
    }
    if (!names.insert(col.name).second) {
      throw StorageError("Schema: duplicate column name " + col.name);
    }
  }
}

void Schema::check_row(const std::vector<Value>& row) const {
  if (row.size() != columns.size()) {
    throw StorageError("row has " + std::to_string(row.size()) +
                       " values, schema has " + std::to_string(columns.size()) +
                       " columns");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      if (!columns[i].nullable) {
        throw StorageError("null in non-nullable column " + columns[i].name);
      }
      continue;
    }
    if (row[i].type() != columns[i].type) {
      throw StorageError("column " + columns[i].name + ": expected " +
                         value_type_name(columns[i].type) + ", got " +
                         value_type_name(row[i].type()));
    }
  }
}

std::optional<std::size_t> Schema::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  return std::nullopt;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  schema_.validate();
}

void Table::insert(Row row) {
  schema_.check_row(row);
  Value key = row[schema_.primary_key];
  const auto [it, inserted] = rows_.emplace(std::move(key), std::move(row));
  (void)it;
  if (!inserted) {
    throw StorageError("insert: duplicate primary key");
  }
}

void Table::upsert(Row row) {
  schema_.check_row(row);
  Value key = row[schema_.primary_key];
  rows_[std::move(key)] = std::move(row);
}

std::optional<Row> Table::get(const Value& key) const {
  const auto it = rows_.find(key);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

bool Table::update(const Value& key, Row row) {
  schema_.check_row(row);
  const auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  if (!(row[schema_.primary_key] == key)) {
    // Primary-key changes are modelled as remove+insert by callers.
    throw StorageError("update: row's primary key differs from lookup key");
  }
  it->second = std::move(row);
  return true;
}

bool Table::remove(const Value& key) { return rows_.erase(key) > 0; }

std::size_t Table::remove_if(const Predicate& pred) {
  std::size_t removed = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (pred(it->second)) {
      it = rows_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<Row> Table::select(const Predicate& pred) const {
  std::vector<Row> out;
  for (const auto& [key, row] : rows_) {
    if (pred(row)) out.push_back(row);
  }
  return out;
}

void Table::visit_prefix(std::string_view prefix,
                         const std::function<void(const Row&)>& fn) const {
  if (schema_.columns[schema_.primary_key].type != ValueType::kText) return;
  for (auto it = rows_.lower_bound(Value(std::string(prefix)));
       it != rows_.end() && it->first.as_text().starts_with(prefix); ++it) {
    fn(it->second);
  }
}

std::vector<Row> Table::all() const {
  return select([](const Row&) { return true; });
}

void Table::clear() { rows_.clear(); }

}  // namespace amnesia::storage
