#ifndef EMX_SERVE_SERVE_LOOP_H_
#define EMX_SERVE_SERVE_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "src/core/executor.h"
#include "src/core/status.h"
#include "src/serve/json.h"
#include "src/serve/match_service.h"

namespace emx {

// Admission policy for the request loop.
struct ServeOptions {
  // Bounded request queue: a request arriving while the queue holds this
  // many is SHED immediately with a typed Unavailable response (never
  // silently dropped, never blocking the reader).
  size_t queue_capacity = 128;
  // Max requests drained into one processing batch — also the max
  // in-flight concurrency (a batch's read-only runs go to the executor).
  size_t batch_max = 16;
};

// Deterministic observability for admission tests and `emx serve` exit
// summaries. admitted + shed + parse_errors == lines received;
// processed == admitted once the loop has drained.
struct ServeCounters {
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> processed{0};
  std::atomic<uint64_t> parse_errors{0};
};

// Line-delimited JSON request/response loop over a MatchService (the `emx
// serve` transport). One request object per input line, one response object
// per request — every response echoes the request's "id", so shed
// responses interleaving with processed ones stay attributable.
//
// Requests:
//   {"id":1,"op":"lookup","record":{"Attr":"value",...}}
//   {"id":2,"op":"insert","record":{...}}       (corpus schema by name;
//                                                missing fields are null)
//   {"id":3,"op":"remove","record_id":17}
//   {"id":4,"op":"compact"}
//   {"id":5,"op":"stats"}
// Responses:
//   {"id":1,"ok":true,"matches":[{"record":9,"score":0.83,
//       "provenance":"ml"},...],"candidates":12,"sure":1}
//   {"id":2,"ok":true,"record_id":120}
//   {"id":9,"ok":false,"error":"Unavailable","message":"..."}   (shed)
//
// Threading: Submit (the reader side) parses and either enqueues or sheds;
// a single drain thread pops batches of up to batch_max and applies them in
// arrival order: each run of consecutive lookup/stats requests runs
// concurrently on the executor (under the service's shared lock), and
// every other request runs alone. Responses are written in batch order.
// Stop() drains everything already admitted before joining — an admitted
// request is always answered.
//
// Failpoint: every request handler passes "serve/handle"; arming it with
// mode=block stalls the drain batch deterministically (the admission tests
// saturate the queue this way).
class ServeLoop {
 public:
  // `service` and `out` must outlive the loop. Responses are written to
  // `out` under an internal mutex, one per line, flushed.
  ServeLoop(MatchService* service, ServeOptions options, std::ostream* out,
            const ExecutorContext& ctx = {});
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  // Spawns the drain thread. Call once before Submit.
  void Start();

  // Reader-side admission of one request line. Parses; on success either
  // enqueues (true) or writes a shed Unavailable response (false). Parse
  // failures write a ParseError response and return false. Never blocks on
  // a full queue.
  bool Submit(const std::string& line);

  // Signals end of input, waits for every admitted request to be answered,
  // and joins the drain thread. Idempotent.
  void Stop();

  // Convenience transport: Start, Submit each line of `in` until EOF,
  // Stop. Returns OK (transport-level errors are per-response).
  Status Run(std::istream& in);

  const ServeCounters& counters() const { return counters_; }

 private:
  struct Request {
    JsonValue id;
    JsonValue body;
  };

  void DrainLoop();
  void WriteResponse(const std::string& line);

  MatchService* service_;
  ServeOptions options_;
  std::ostream* out_;
  ExecutorContext exec_ctx_;
  ServeCounters counters_;

  std::mutex out_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread drain_;
};

// One request object → one response object (the per-request core ServeLoop
// batches; exposed for direct-call tests and bench_serve). Passes the
// "serve/handle" failpoint.
JsonValue HandleServeRequest(MatchService& service, const JsonValue& request);

}  // namespace emx

#endif  // EMX_SERVE_SERVE_LOOP_H_
