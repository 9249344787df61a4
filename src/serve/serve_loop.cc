#include "src/serve/serve_loop.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/core/failpoint.h"
#include "src/table/schema.h"
#include "src/table/value.h"

namespace emx {

namespace {

Value JsonToValue(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return Value::Null();
    case JsonValue::Kind::kBool:
      return Value(static_cast<int64_t>(v.bool_value() ? 1 : 0));
    case JsonValue::Kind::kNumber: {
      const double d = v.number_value();
      // Integral numbers in [-2^63, 2^63) land as int64 so equality rules
      // see the same values a CSV load would have produced. Anything else
      // (fractions, magnitudes past int64, NaN) stays a double: casting it
      // would be an out-of-range conversion.
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
          d == std::floor(d)) {
        return Value(static_cast<int64_t>(d));
      }
      return Value(d);
    }
    case JsonValue::Kind::kString:
      return Value(v.string_value());
    default:
      // Arrays/objects have no cell representation; treat as null.
      return Value::Null();
  }
}

// Builds a single-row query table from a request's "record" object —
// schema is the object's keys in request order.
Result<Table> RecordToTable(const JsonValue& record) {
  if (!record.is_object()) {
    return Status::InvalidArgument("serve: 'record' must be an object");
  }
  std::vector<Field> fields;
  std::vector<Value> row;
  for (const JsonValue::Member& m : record.object_members()) {
    fields.push_back({m.first, DataType::kAny});
    row.push_back(JsonToValue(m.second));
  }
  Table t{Schema(std::move(fields))};
  EMX_RETURN_IF_ERROR(t.AppendRow(std::move(row)));
  return t;
}

JsonValue LatencyToJson(const LatencySummary& s) {
  JsonValue out = JsonValue::Object();
  out.Set("p50_us", JsonValue::Number(s.p50_us));
  out.Set("p99_us", JsonValue::Number(s.p99_us));
  out.Set("count", JsonValue::Number(static_cast<double>(s.count)));
  return out;
}

// Dispatches one request body; response body members only (id/ok are the
// caller's). Any Status error — including one injected by the
// "serve/handle" failpoint — becomes an error response upstream.
Result<JsonValue> ApplyRequest(MatchService& service, const JsonValue& req) {
  EMX_FAILPOINT("serve/handle");
  const JsonValue* op = req.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("serve: request needs a string 'op'");
  }
  const std::string& name = op->string_value();
  JsonValue out = JsonValue::Object();
  if (name == "lookup") {
    const JsonValue* record = req.Find("record");
    if (record == nullptr) {
      return Status::InvalidArgument("serve: lookup needs 'record'");
    }
    EMX_ASSIGN_OR_RETURN(Table query, RecordToTable(*record));
    EMX_ASSIGN_OR_RETURN(LookupResult result, service.Lookup(query, 0));
    JsonValue matches = JsonValue::Array();
    for (const RankedMatch& m : result.matches) {
      JsonValue jm = JsonValue::Object();
      jm.Set("record", JsonValue::Number(static_cast<double>(m.record)));
      jm.Set("score", JsonValue::Number(m.score));
      jm.Set("provenance", JsonValue::String(m.provenance));
      matches.Append(std::move(jm));
    }
    out.Set("matches", std::move(matches));
    out.Set("candidates",
            JsonValue::Number(static_cast<double>(result.num_candidates)));
    out.Set("sure", JsonValue::Number(static_cast<double>(result.num_sure)));
    return out;
  }
  if (name == "insert") {
    const JsonValue* record = req.Find("record");
    if (record == nullptr || !record->is_object()) {
      return Status::InvalidArgument("serve: insert needs a 'record' object");
    }
    // Corpus schema order by name; absent fields are null.
    std::vector<Value> row;
    const Schema& schema = service.corpus().schema();
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      const JsonValue* cell = record->Find(schema.field(i).name);
      row.push_back(cell != nullptr ? JsonToValue(*cell) : Value::Null());
    }
    EMX_ASSIGN_OR_RETURN(uint32_t id, service.Insert(std::move(row)));
    out.Set("record_id", JsonValue::Number(static_cast<double>(id)));
    return out;
  }
  if (name == "remove") {
    const JsonValue* id = req.Find("record_id");
    // Only an integral id in [0, 2^32) names a record: a cast would
    // truncate 3.7 to record 3, and -1 or 1e20 overflow it.
    const double d = id != nullptr && id->is_number() ? id->number_value() : -1;
    if (!(d >= 0 && d < 4294967296.0 && d == std::floor(d))) {
      return Status::InvalidArgument(
          "serve: remove needs an integer 'record_id' in [0, 2^32)");
    }
    EMX_RETURN_IF_ERROR(service.Remove(static_cast<uint32_t>(d)));
    out.Set("removed", JsonValue::Bool(true));
    return out;
  }
  if (name == "compact") {
    service.Compact();
    out.Set("compacted", JsonValue::Bool(true));
    return out;
  }
  if (name == "stats") {
    MatchServiceStats s = service.Stats();
    out.Set("lookups", JsonValue::Number(static_cast<double>(s.lookups)));
    out.Set("inserts", JsonValue::Number(static_cast<double>(s.inserts)));
    out.Set("removes", JsonValue::Number(static_cast<double>(s.removes)));
    out.Set("live_records",
            JsonValue::Number(static_cast<double>(s.live_records)));
    out.Set("total_records",
            JsonValue::Number(static_cast<double>(s.total_records)));
    out.Set("corpus_preps",
            JsonValue::Number(static_cast<double>(s.corpus_preps)));
    out.Set("query_preps",
            JsonValue::Number(static_cast<double>(s.query_preps)));
    out.Set("interned_tokens",
            JsonValue::Number(static_cast<double>(s.interned_tokens)));
    out.Set("compactions",
            JsonValue::Number(static_cast<double>(s.compactions)));
    out.Set("delta_postings",
            JsonValue::Number(static_cast<double>(s.delta_postings)));
    out.Set("dead_postings",
            JsonValue::Number(static_cast<double>(s.dead_postings)));
    JsonValue lat = JsonValue::Object();
    lat.Set("block", LatencyToJson(s.block));
    lat.Set("vectorize", LatencyToJson(s.vectorize));
    lat.Set("score", LatencyToJson(s.score));
    lat.Set("rules", LatencyToJson(s.rules));
    lat.Set("total", LatencyToJson(s.total));
    out.Set("latency", std::move(lat));
    return out;
  }
  return Status::InvalidArgument("serve: unknown op '" + name + "'");
}

JsonValue MakeResponse(const JsonValue& id, Result<JsonValue> body) {
  JsonValue resp = JsonValue::Object();
  resp.Set("id", id);
  if (body.ok()) {
    resp.Set("ok", JsonValue::Bool(true));
    for (const JsonValue::Member& m : body.value().object_members()) {
      resp.Set(m.first, m.second);
    }
  } else {
    resp.Set("ok", JsonValue::Bool(false));
    resp.Set("error", JsonValue::String(
                          std::string(StatusCodeToString(body.status().code()))));
    resp.Set("message", JsonValue::String(body.status().message()));
  }
  return resp;
}

// Lookups and stats change nothing, so a run of them may run in any order.
bool IsReadOnly(const JsonValue& request) {
  const JsonValue* op = request.Find("op");
  return op != nullptr && op->is_string() &&
         (op->string_value() == "lookup" || op->string_value() == "stats");
}

}  // namespace

JsonValue HandleServeRequest(MatchService& service, const JsonValue& request) {
  const JsonValue* id = request.Find("id");
  return MakeResponse(id != nullptr ? *id : JsonValue::Null(),
                      ApplyRequest(service, request));
}

ServeLoop::ServeLoop(MatchService* service, ServeOptions options,
                     std::ostream* out, const ExecutorContext& ctx)
    : service_(service), options_(options), out_(out), exec_ctx_(ctx) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.batch_max == 0) options_.batch_max = 1;
}

ServeLoop::~ServeLoop() { Stop(); }

void ServeLoop::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  drain_ = std::thread([this] { DrainLoop(); });
}

void ServeLoop::WriteResponse(const std::string& line) {
  std::lock_guard<std::mutex> lock(out_mu_);
  (*out_) << line << '\n';
  out_->flush();
}

bool ServeLoop::Submit(const std::string& line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(MakeResponse(JsonValue::Null(), parsed.status()).Dump());
    return false;
  }
  const JsonValue* id = parsed.value().Find("id");
  JsonValue id_copy = id != nullptr ? *id : JsonValue::Null();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < options_.queue_capacity) {
      queue_.push_back(Request{std::move(id_copy), std::move(parsed).value()});
      counters_.admitted.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
      return true;
    }
  }
  // Overload: typed shed, written immediately on the reader thread — the
  // caller learns NOW, instead of a silent drop or an unbounded queue.
  counters_.shed.fetch_add(1, std::memory_order_relaxed);
  WriteResponse(
      MakeResponse(id_copy,
                   Status::Unavailable("serve: request queue full (" +
                                       std::to_string(options_.queue_capacity) +
                                       " pending); retry later"))
          .Dump());
  return false;
}

void ServeLoop::DrainLoop() {
  std::vector<Request> batch;
  std::vector<std::string> responses;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      size_t take = std::min(options_.batch_max, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Apply requests in arrival order: each maximal run of read-only
    // requests runs on the executor (concurrent shared-lock lookups), and
    // every other request runs alone, so a lookup queued after an insert
    // sees it. Responses are written in batch order — deterministic output
    // for a deterministic input sequence.
    responses.assign(batch.size(), std::string());
    for (size_t lo = 0; lo < batch.size();) {
      size_t hi = lo + 1;
      if (IsReadOnly(batch[lo].body)) {
        while (hi < batch.size() && IsReadOnly(batch[hi].body)) ++hi;
      }
      exec_ctx_.get().ParallelFor(
          lo, hi, /*grain=*/1, [&](size_t a, size_t b) {
            for (size_t i = a; i < b; ++i) {
              responses[i] =
                  HandleServeRequest(*service_, batch[i].body).Dump();
            }
          });
      lo = hi;
    }
    for (const std::string& r : responses) WriteResponse(r);
    counters_.processed.fetch_add(batch.size(), std::memory_order_relaxed);
  }
}

void ServeLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!started_) return;
    stopping_ = true;
    queue_cv_.notify_all();
  }
  if (drain_.joinable()) drain_.join();
  std::lock_guard<std::mutex> lock(queue_mu_);
  started_ = false;
}

Status ServeLoop::Run(std::istream& in) {
  Start();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Submit(line);
  }
  Stop();
  return Status::OK();
}

}  // namespace emx
