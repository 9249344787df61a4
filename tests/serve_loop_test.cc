// ServeLoop transport + admission-control suite: the line-delimited JSON
// protocol end to end, and the bounded-queue overload contract — a
// saturated loop sheds with a typed Unavailable response, never hangs, and
// never drops an admitted request (failpoint-stalled workers make the
// saturation deterministic).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/block/overlap_blocker.h"
#include "src/core/failpoint.h"
#include "src/ml/decision_tree.h"
#include "src/serve/json.h"
#include "src/serve/serve_loop.h"
#include "src/table/csv.h"
#include "src/workflow/em_workflow.h"

namespace emx {
namespace {

// --- JSON unit tests -------------------------------------------------------------

TEST(ServeJsonTest, ParsesScalarsAndNesting) {
  auto v = ParseJson(R"({"a":1,"b":[true,false,null],"c":{"d":"x\ny"}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("a")->number_value(), 1.0);
  EXPECT_EQ(v->Find("b")->array_items().size(), 3u);
  EXPECT_TRUE(v->Find("b")->array_items()[0].bool_value());
  EXPECT_TRUE(v->Find("b")->array_items()[2].is_null());
  EXPECT_EQ(v->Find("c")->Find("d")->string_value(), "x\ny");
  EXPECT_EQ(v->Find("nope"), nullptr);
}

TEST(ServeJsonTest, RoundTripsThroughDump) {
  const std::string line =
      R"({"id":7,"op":"lookup","record":{"Title":"a \"b\" c","Year":1999}})";
  auto v = ParseJson(line);
  ASSERT_TRUE(v.ok());
  auto again = ParseJson(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(), v->Dump());
  EXPECT_EQ(again->Find("record")->Find("Year")->number_value(), 1999.0);
  // Integral numbers print without a decimal point (stable ids).
  EXPECT_NE(v->Dump().find("\"id\":7,"), std::string::npos);
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\":1}trailing", "nul",
        "\"unterminated", "{\"a\" 1}", "01", "1e999"}) {
    auto v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "accepted: " << bad;
    EXPECT_EQ(v.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(ServeJsonTest, UnicodeEscapesDecodeToUtf8) {
  auto v = ParseJson(R"({"s":"é中😀"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("s")->string_value(), "\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80");
  // Lone surrogate is malformed.
  EXPECT_FALSE(ParseJson(R"({"s":"\ud83d"})").ok());
}

// --- service fixture -------------------------------------------------------------

// Tiny toy service: title-overlap blocker + a Jaccard tree matcher over a
// four-row corpus (the workflow_test shape).
struct LoopFixture {
  Table left;
  Table corpus;
  EmWorkflow wf;
  std::unique_ptr<MatchService> service;
};

LoopFixture* MakeLoopFixture() {
  auto* f = new LoopFixture();
  f->left = *ReadCsvString(
      "Title\n"
      "alpha beta gamma delta\n"
      "epsilon zeta eta theta\n");
  f->corpus = *ReadCsvString(
      "Title\n"
      "alpha beta gamma delta\n"
      "epsilon zeta eta theta\n"
      "unrelated words here now\n"
      "gamma delta alpha beta\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "Title";
  opts.right_attr = "Title";
  f->wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  FeatureSet features;
  features.features.push_back(MakeJaccardFeature("Title", "Title"));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0}, {0.8}, {0.1}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EXPECT_TRUE(tree->Fit(d).ok());
  f->wf.SetMatcher(std::move(tree), std::move(features), std::move(imputer));
  auto created = MatchService::Create(f->wf, f->corpus);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  f->service = std::move(created).value();
  return f;
}

const LoopFixture& Fixture() {
  static const LoopFixture& fx = *MakeLoopFixture();
  return fx;
}

std::vector<JsonValue> ParseResponses(const std::string& text) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto v = ParseJson(line);
    EXPECT_TRUE(v.ok()) << "bad response line: " << line;
    if (v.ok()) out.push_back(std::move(*v));
  }
  return out;
}

const JsonValue* FindById(const std::vector<JsonValue>& responses, double id) {
  for (const JsonValue& r : responses) {
    const JsonValue* rid = r.Find("id");
    if (rid != nullptr && rid->is_number() && rid->number_value() == id) {
      return &r;
    }
  }
  return nullptr;
}

// --- end-to-end session ----------------------------------------------------------

TEST(ServeLoopTest, EndToEndSessionOverStream) {
  // Fresh service: this session mutates the corpus.
  auto fx = std::unique_ptr<LoopFixture>(MakeLoopFixture());
  std::istringstream in(
      R"({"id":1,"op":"lookup","record":{"Title":"alpha beta gamma delta"}})"
      "\n"
      R"({"id":2,"op":"insert","record":{"Title":"alpha beta gamma echo"}})"
      "\n"
      R"({"id":3,"op":"lookup","record":{"Title":"alpha beta gamma echo"}})"
      "\n"
      R"({"id":4,"op":"remove","record_id":4})"
      "\n"
      R"({"id":5,"op":"lookup","record":{"Title":"alpha beta gamma echo"}})"
      "\n"
      R"({"id":6,"op":"stats"})"
      "\n"
      "this is not json\n"
      R"({"id":8,"op":"frobnicate"})"
      "\n");
  std::ostringstream out;
  ServeLoop loop(fx->service.get(), ServeOptions{}, &out);
  ASSERT_TRUE(loop.Run(in).ok());

  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), 8u);
  EXPECT_EQ(loop.counters().admitted.load(), 7u);
  EXPECT_EQ(loop.counters().processed.load(), 7u);
  EXPECT_EQ(loop.counters().shed.load(), 0u);
  EXPECT_EQ(loop.counters().parse_errors.load(), 1u);

  const JsonValue* r1 = FindById(responses, 1);
  ASSERT_NE(r1, nullptr);
  EXPECT_TRUE(r1->Find("ok")->bool_value());
  // Rows 0 and 3 share all four tokens with the query.
  EXPECT_EQ(r1->Find("matches")->array_items().size(), 2u);

  const JsonValue* r2 = FindById(responses, 2);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->Find("record_id")->number_value(), 4.0);

  const JsonValue* r3 = FindById(responses, 3);
  ASSERT_NE(r3, nullptr);
  bool saw_new = false;
  for (const JsonValue& m : r3->Find("matches")->array_items()) {
    if (m.Find("record")->number_value() == 4.0) saw_new = true;
  }
  EXPECT_TRUE(saw_new) << "inserted record must be servable immediately";

  const JsonValue* r5 = FindById(responses, 5);
  ASSERT_NE(r5, nullptr);
  for (const JsonValue& m : r5->Find("matches")->array_items()) {
    EXPECT_NE(m.Find("record")->number_value(), 4.0) << "removed record served";
  }

  const JsonValue* r6 = FindById(responses, 6);
  ASSERT_NE(r6, nullptr);
  EXPECT_EQ(r6->Find("inserts")->number_value(), 1.0);
  EXPECT_EQ(r6->Find("removes")->number_value(), 1.0);
  EXPECT_GE(r6->Find("latency")->Find("total")->Find("count")->number_value(),
            2.0);

  const JsonValue* r8 = FindById(responses, 8);
  ASSERT_NE(r8, nullptr);
  EXPECT_FALSE(r8->Find("ok")->bool_value());
  EXPECT_EQ(r8->Find("error")->string_value(), "InvalidArgument");
}

// A remove id that is not an integer in [0, 2^32) is an error, never cast:
// 3.7 used to remove record 3, and -1 and 1e20 overflowed the cast.
TEST(ServeLoopTest, RemoveRejectsNonIntegralIds) {
  auto fx = std::unique_ptr<LoopFixture>(MakeLoopFixture());
  std::istringstream in(
      R"({"id":1,"op":"remove","record_id":3.7})"
      "\n"
      R"({"id":2,"op":"remove","record_id":-1})"
      "\n"
      R"({"id":3,"op":"remove","record_id":1e20})"
      "\n"
      R"({"id":4,"op":"remove","record_id":"3"})"
      "\n"
      R"({"id":5,"op":"lookup","record":{"Title":"gamma delta alpha beta"}})"
      "\n"
      R"({"id":6,"op":"stats"})"
      "\n");
  std::ostringstream out;
  ServeLoop loop(fx->service.get(), ServeOptions{}, &out);
  ASSERT_TRUE(loop.Run(in).ok());
  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), 6u);
  for (double id : {1.0, 2.0, 3.0, 4.0}) {
    const JsonValue* r = FindById(responses, id);
    ASSERT_NE(r, nullptr) << id;
    EXPECT_FALSE(r->Find("ok")->bool_value()) << id;
    EXPECT_EQ(r->Find("error")->string_value(), "InvalidArgument") << id;
  }
  const JsonValue* lookup = FindById(responses, 5);
  ASSERT_NE(lookup, nullptr);
  bool saw_3 = false;
  for (const JsonValue& m : lookup->Find("matches")->array_items()) {
    if (m.Find("record")->number_value() == 3.0) saw_3 = true;
  }
  EXPECT_TRUE(saw_3) << "record 3 must stay live";
  const JsonValue* stats = FindById(responses, 6);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("removes")->number_value(), 0.0);
  EXPECT_EQ(stats->Find("live_records")->number_value(), 4.0);
}

// A record field too large for int64 stays a double: casting 1e20 to int64
// was an out-of-range conversion (UB) before the integrality test. A large
// integer that fits still lands as int64, as a CSV load would give it.
TEST(ServeLoopTest, HugeNumericFieldsStayDoubles) {
  auto fx = std::unique_ptr<LoopFixture>(MakeLoopFixture());
  std::istringstream in(
      R"({"id":1,"op":"lookup","record":{"Title":1e20}})"
      "\n"
      R"({"id":2,"op":"lookup","record":{"Title":-1e20}})"
      "\n"
      R"({"id":3,"op":"insert","record":{"Title":1e20}})"
      "\n"
      R"({"id":4,"op":"insert","record":{"Title":-1e20}})"
      "\n"
      R"({"id":5,"op":"insert","record":{"Title":9007199254740992}})"
      "\n");
  std::ostringstream out;
  ServeLoop loop(fx->service.get(), ServeOptions{}, &out);
  ASSERT_TRUE(loop.Run(in).ok());
  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), 5u);
  for (double id : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    const JsonValue* r = FindById(responses, id);
    ASSERT_NE(r, nullptr) << id;
    EXPECT_TRUE(r->Find("ok")->bool_value()) << id;
  }
  const std::vector<Value>& titles = fx->service->corpus().column(0);
  ASSERT_EQ(titles.size(), 7u);
  ASSERT_TRUE(titles[4].is_double());
  EXPECT_EQ(titles[4].AsDouble(), 1e20);
  ASSERT_TRUE(titles[5].is_double());
  EXPECT_EQ(titles[5].AsDouble(), -1e20);
  ASSERT_TRUE(titles[6].is_int());
  EXPECT_EQ(titles[6].AsInt(), int64_t{9007199254740992});
}

// --- admission control -----------------------------------------------------------

// Deterministic saturation: a blocked "serve/handle" failpoint parks the
// drain thread on request 1, the queue (capacity 2) absorbs requests 2-3,
// and every further Submit must shed IMMEDIATELY with a typed Unavailable
// response carrying the request's id. Disarming releases the drain thread;
// Stop() then answers everything admitted — 10 submits, 10 responses, no
// hang, no drop.
TEST(ServeLoopAdmissionTest, OverloadShedsTypedUnavailable) {
  const LoopFixture& fx = Fixture();
  FailPointRegistry& registry = FailPointRegistry::Global();
  ASSERT_TRUE(registry.ArmFromSpecList("serve/handle:block,timeout_ms=30000")
                  .ok());

  std::ostringstream out;
  ServeOptions opts;
  opts.queue_capacity = 2;
  opts.batch_max = 1;
  ServeLoop loop(fx.service.get(), opts, &out);
  loop.Start();

  auto request = [](int id) {
    return std::string(R"({"id":)") + std::to_string(id) +
           R"(,"op":"lookup","record":{"Title":"alpha beta gamma delta"}})";
  };

  // fires() is cumulative across re-arms, so all waits are baseline-relative.
  FailPoint* fp = registry.Find("serve/handle");
  ASSERT_NE(fp, nullptr);
  const uint64_t base_fires = fp->fires();

  // Request 1 drains immediately and parks on the failpoint.
  EXPECT_TRUE(loop.Submit(request(1)));
  for (int spin = 0; spin < 4000 && fp->fires() == base_fires; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fp->fires(), base_fires + 1)
      << "drain thread never reached the failpoint";

  // Queue absorbs exactly queue_capacity more.
  EXPECT_TRUE(loop.Submit(request(2)));
  EXPECT_TRUE(loop.Submit(request(3)));
  // Everything beyond is shed synchronously.
  for (int id = 4; id <= 10; ++id) {
    EXPECT_FALSE(loop.Submit(request(id))) << "id " << id;
  }
  EXPECT_EQ(loop.counters().shed.load(), 7u);
  EXPECT_EQ(loop.counters().admitted.load(), 3u);

  // Release the drain thread; Stop() must answer all admitted requests.
  registry.DisarmAll();
  loop.Stop();
  EXPECT_EQ(loop.counters().processed.load(), 3u);

  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), 10u);
  for (int id = 1; id <= 10; ++id) {
    const JsonValue* r = FindById(responses, id);
    ASSERT_NE(r, nullptr) << "no response for id " << id;
    if (id <= 3) {
      EXPECT_TRUE(r->Find("ok")->bool_value()) << "id " << id;
    } else {
      EXPECT_FALSE(r->Find("ok")->bool_value()) << "id " << id;
      EXPECT_EQ(r->Find("error")->string_value(), "Unavailable") << "id " << id;
      EXPECT_NE(r->Find("message")->string_value().find("queue full"),
                std::string::npos);
    }
  }
}

// A shed burst followed by normal traffic recovers: the queue drains and
// subsequent requests are admitted and answered.
TEST(ServeLoopAdmissionTest, RecoversAfterShedding) {
  const LoopFixture& fx = Fixture();
  FailPointRegistry& registry = FailPointRegistry::Global();
  ASSERT_TRUE(registry.ArmFromSpecList("serve/handle:block,timeout_ms=30000")
                  .ok());
  std::ostringstream out;
  ServeOptions opts;
  opts.queue_capacity = 1;
  opts.batch_max = 1;
  ServeLoop loop(fx.service.get(), opts, &out);
  loop.Start();
  FailPoint* fp = registry.Find("serve/handle");
  ASSERT_NE(fp, nullptr);
  const uint64_t base_fires = fp->fires();
  EXPECT_TRUE(loop.Submit(R"({"id":1,"op":"stats"})"));
  for (int spin = 0; spin < 4000 && fp->fires() == base_fires; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(fp->fires(), base_fires)
      << "drain thread never reached the failpoint";
  EXPECT_TRUE(loop.Submit(R"({"id":2,"op":"stats"})"));   // fills the queue
  EXPECT_FALSE(loop.Submit(R"({"id":3,"op":"stats"})"));  // shed
  registry.DisarmAll();
  // Wait until the queue drains, then traffic flows again.
  for (int spin = 0; spin < 4000 && loop.counters().processed.load() < 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(loop.Submit(R"({"id":4,"op":"stats"})"));
  loop.Stop();
  EXPECT_EQ(loop.counters().admitted.load(), 3u);
  EXPECT_EQ(loop.counters().processed.load(), 3u);
  EXPECT_EQ(loop.counters().shed.load(), 1u);
  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(FindById(responses, 4)->Find("ok")->bool_value());
}

// Stop() without traffic, double Stop(), and destruction while started are
// all clean (the dtor stops an un-stopped loop).
TEST(ServeLoopAdmissionTest, LifecycleEdgeCases) {
  const LoopFixture& fx = Fixture();
  std::ostringstream out;
  {
    ServeLoop loop(fx.service.get(), ServeOptions{}, &out);
    loop.Start();
    loop.Stop();
    loop.Stop();
    // Restart after Stop works.
    loop.Start();
    EXPECT_TRUE(loop.Submit(R"({"id":1,"op":"stats"})"));
    loop.Stop();
    EXPECT_EQ(loop.counters().processed.load(), 1u);
  }
  {
    ServeLoop loop(fx.service.get(), ServeOptions{}, &out);
    loop.Start();
    EXPECT_TRUE(loop.Submit(R"({"id":2,"op":"stats"})"));
    // Destructor joins with the request still answered.
  }
  auto responses = ParseResponses(out.str());
  EXPECT_EQ(responses.size(), 2u);
}

// HandleServeRequest surfaces failpoint-injected Status as an error
// response (the transport never loses typed errors).
TEST(ServeLoopAdmissionTest, FailpointErrorBecomesErrorResponse) {
  const LoopFixture& fx = Fixture();
  FailPointRegistry& registry = FailPointRegistry::Global();
  ASSERT_TRUE(registry.ArmFromSpecList("serve/handle:error(Internal)").ok());
  auto req = ParseJson(R"({"id":9,"op":"stats"})");
  ASSERT_TRUE(req.ok());
  JsonValue resp = HandleServeRequest(*fx.service, *req);
  registry.DisarmAll();
  EXPECT_FALSE(resp.Find("ok")->bool_value());
  EXPECT_EQ(resp.Find("error")->string_value(), "Internal");
  EXPECT_EQ(resp.Find("id")->number_value(), 9.0);
}

}  // namespace
}  // namespace emx
