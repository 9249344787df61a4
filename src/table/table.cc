#include "src/table/table.h"

#include <atomic>
#include <sstream>
#include <unordered_set>

#include "src/core/logging.h"

namespace emx {

const Value Table::kNullValue = Value();

uint64_t Table::NextVersion() {
  static std::atomic<uint64_t> last{0};
  return ++last;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_fields());
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != table width " +
        std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].push_back(std::move(row[i]));
  }
  ++num_rows_;
  version_ = NextVersion();
  return Status::OK();
}

const Value& Table::at(size_t row, size_t col) const {
  EMX_CHECK(col < columns_.size() && row < num_rows_)
      << "cell (" << row << "," << col << ") out of bounds";
  return columns_[col][row];
}

void Table::set(size_t row, size_t col, Value v) {
  EMX_CHECK(col < columns_.size() && row < num_rows_)
      << "cell (" << row << "," << col << ") out of bounds";
  columns_[col][row] = std::move(v);
  version_ = NextVersion();
}

const Value& Table::at(size_t row, const std::string& col_name) const {
  int col = schema_.IndexOf(col_name);
  if (col < 0) return kNullValue;
  return at(row, static_cast<size_t>(col));
}

const std::vector<Value>& Table::column(size_t col) const {
  EMX_CHECK(col < columns_.size()) << "column " << col << " out of bounds";
  return columns_[col];
}

Result<const std::vector<Value>*> Table::ColumnByName(
    const std::string& name) const {
  int col = schema_.IndexOf(name);
  if (col < 0) return Status::NotFound("no column named " + name);
  return &columns_[static_cast<size_t>(col)];
}

std::vector<Value> Table::Row(size_t row) const {
  EMX_CHECK(row < num_rows_) << "row " << row << " out of bounds";
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c[row]);
  return out;
}

Status Table::AddColumn(Field field) {
  return AddColumn(std::move(field), std::vector<Value>(num_rows_));
}

Status Table::AddColumn(Field field, std::vector<Value> values) {
  if (values.size() != num_rows_) {
    return Status::InvalidArgument(
        "column length " + std::to_string(values.size()) +
        " != num_rows " + std::to_string(num_rows_));
  }
  EMX_RETURN_IF_ERROR(schema_.AddField(std::move(field)));
  columns_.push_back(std::move(values));
  version_ = NextVersion();
  return Status::OK();
}

Status Table::DropColumn(const std::string& name) {
  int col = schema_.IndexOf(name);
  if (col < 0) return Status::NotFound("no column named " + name);
  std::vector<Field> fields = schema_.fields();
  fields.erase(fields.begin() + col);
  schema_ = Schema(std::move(fields));
  columns_.erase(columns_.begin() + col);
  version_ = NextVersion();
  return Status::OK();
}

Status Table::RenameColumn(const std::string& from, const std::string& to) {
  EMX_RETURN_IF_ERROR(schema_.RenameField(from, to));
  version_ = NextVersion();
  return Status::OK();
}

Result<bool> Table::IsUniqueKey(const std::string& name) const {
  int col = schema_.IndexOf(name);
  if (col < 0) return Status::NotFound("no column named " + name);
  std::unordered_set<std::string> seen;
  seen.reserve(num_rows_ * 2);
  for (const Value& v : columns_[static_cast<size_t>(col)]) {
    if (v.is_null()) return false;
    if (!seen.insert(v.AsString()).second) return false;
  }
  return true;
}

Result<bool> Table::IsForeignKeyInto(const std::string& col,
                                     const Table& other,
                                     const std::string& other_col) const {
  int ci = schema_.IndexOf(col);
  if (ci < 0) return Status::NotFound("no column named " + col);
  int cj = other.schema_.IndexOf(other_col);
  if (cj < 0) return Status::NotFound("no column named " + other_col);
  std::unordered_set<std::string> keys;
  keys.reserve(other.num_rows_ * 2);
  for (const Value& v : other.columns_[static_cast<size_t>(cj)]) {
    if (!v.is_null()) keys.insert(v.AsString());
  }
  for (const Value& v : columns_[static_cast<size_t>(ci)]) {
    if (v.is_null()) continue;
    if (keys.find(v.AsString()) == keys.end()) return false;
  }
  return true;
}

std::string Table::Preview(size_t max_rows) const {
  std::ostringstream os;
  const auto names = schema_.names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) os << " | ";
    os << names[i];
  }
  os << "\n";
  size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) os << " | ";
      os << columns_[c][r].AsString("<null>");
    }
    os << "\n";
  }
  if (num_rows_ > n) {
    os << "... (" << num_rows_ - n << " more rows)\n";
  }
  return os.str();
}

}  // namespace emx
