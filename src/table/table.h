#ifndef EMX_TABLE_TABLE_H_
#define EMX_TABLE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/result.h"
#include "src/core/status.h"
#include "src/table/schema.h"
#include "src/table/value.h"

namespace emx {

// A column-oriented in-memory table.
//
// Columns are vectors of Value aligned by row index. Column orientation
// keeps profiling, blocking-attribute scans, and feature extraction cache
// friendly; rows are materialized on demand.
//
// Every table carries a version that identifies its contents: a new table
// and every successful mutation draw a fresh one from one process-wide
// counter, and a copy keeps its source's (the contents are equal). So two
// tables with equal versions hold equal contents, however many tables
// were freed and built meanwhile; PrepCache keys its entries on it.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  uint64_t version() const { return version_; }

  // Appends a row; `row` must have exactly num_columns() values.
  Status AppendRow(std::vector<Value> row);

  // Cell accessors. Bounds are the caller's responsibility (checked in
  // debug builds via EMX_CHECK).
  const Value& at(size_t row, size_t col) const;
  void set(size_t row, size_t col, Value v);

  // Cell by column name; null Value if the column is absent.
  const Value& at(size_t row, const std::string& col_name) const;

  // Whole column by index/name.
  const std::vector<Value>& column(size_t col) const;
  Result<const std::vector<Value>*> ColumnByName(const std::string& name) const;

  // Materializes row `row` as a vector of values.
  std::vector<Value> Row(size_t row) const;

  // Adds an empty (all-null) column. Fails on duplicate name.
  Status AddColumn(Field field);

  // Adds a column with the given values (must match num_rows()).
  Status AddColumn(Field field, std::vector<Value> values);

  // Removes the column named `name`.
  Status DropColumn(const std::string& name);

  // Renames a column.
  Status RenameColumn(const std::string& from, const std::string& to);

  // True if column `name` exists, has no nulls, and no duplicate values —
  // i.e. it can serve as a primary key (paper §6 step 2).
  Result<bool> IsUniqueKey(const std::string& name) const;

  // True if every non-null value of `this[col]` appears in `other[other_col]`
  // — a foreign-key containment check (paper §6 step 2).
  Result<bool> IsForeignKeyInto(const std::string& col, const Table& other,
                                const std::string& other_col) const;

  // A short printable preview (header + first `max_rows` rows).
  std::string Preview(size_t max_rows = 5) const;

 private:
  // A version no table has held yet.
  static uint64_t NextVersion();

  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
  uint64_t version_ = NextVersion();

  static const Value kNullValue;
};

}  // namespace emx

#endif  // EMX_TABLE_TABLE_H_
