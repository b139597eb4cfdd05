/**
 * @file
 * Mapping-service regression tests for runtime-sized programs: an eval
 * of the CSR SpMV demo must return the consolidation verdict in both
 * the explanation text and the response's consolidation JSON object,
 * requesting the consolidate strategy must round-trip, and a malformed
 * size binding for the runtime-sized program must produce ok:false
 * while leaving the listener alive for the next request.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "server/json.h"
#include "server/server.h"
#include "sim/evalcache.h"

using namespace npp;

namespace {

class DynSizeServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/nppsrv_dyn_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        socket_ = dir_ + "/npp.sock";
        EvalCache &cache = EvalCache::instance();
        savedDiskDir_ = cache.diskDir();
        cache.setDiskDir("");
        cache.clear();

        ServeOptions opts;
        opts.socketPath = socket_;
        server_ = std::make_unique<MappingServer>(opts);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->stop();
            server_.reset();
        }
        EvalCache::instance().setDiskDir(savedDiskDir_);
        EvalCache::instance().clear();
        const std::string cmd = "rm -rf '" + dir_ + "'";
        (void)!std::system(cmd.c_str());
    }

    JsonValue
    request(const std::string &line)
    {
        std::string response, error;
        EXPECT_TRUE(serveRoundTrip(socket_, line, &response, &error))
            << error;
        std::string parseError;
        std::optional<JsonValue> parsed = parseJson(response, &parseError);
        EXPECT_TRUE(parsed.has_value())
            << parseError << " in: " << response;
        return parsed ? *parsed : JsonValue{};
    }

    std::string dir_;
    std::string socket_;
    std::string savedDiskDir_;
    std::unique_ptr<MappingServer> server_;
};

TEST_F(DynSizeServerTest, EvalReturnsConsolidationVerdict)
{
    const JsonValue resp = request(
        "{\"type\":\"eval\",\"program\":\"spmv\",\"explain\":true,"
        "\"sizes\":{\"rows\":512,\"avgdeg\":4}}");
    ASSERT_TRUE(resp.get("ok"));
    EXPECT_TRUE(resp.get("ok")->asBool());

    // The response carries the consolidation sweep as a JSON object
    // with the named verdict...
    const JsonValue *cons = resp.get("consolidation");
    ASSERT_NE(cons, nullptr) << "response lacks consolidation object";
    ASSERT_TRUE(cons->isObject());
    ASSERT_NE(cons->get("selected"), nullptr);
    const std::string verdict = cons->get("selected")->asString();
    EXPECT_NE(verdict.find("consolidated"), std::string::npos) << verdict;
    ASSERT_NE(cons->get("points"), nullptr);

    // ...and the human-readable explanation names the sweep too.
    ASSERT_NE(resp.get("explanation"), nullptr);
    const std::string expl = resp.get("explanation")->asString();
    EXPECT_NE(expl.find("consolidation sweep"), std::string::npos);
    EXPECT_NE(expl.find("selected:"), std::string::npos);
}

TEST_F(DynSizeServerTest, ConsolidateStrategyRoundTrips)
{
    const JsonValue resp = request(
        "{\"type\":\"eval\",\"program\":\"spmv\","
        "\"strategy\":\"consolidate\","
        "\"sizes\":{\"rows\":512,\"avgdeg\":4}}");
    ASSERT_TRUE(resp.get("ok"));
    EXPECT_TRUE(resp.get("ok")->asBool());
    ASSERT_NE(resp.get("report"), nullptr);
    const JsonValue *stats = resp.get("report")->get("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(stats->get("has_consolidation"), nullptr);
    EXPECT_TRUE(stats->get("has_consolidation")->asBool());
}

TEST_F(DynSizeServerTest, MalformedSizeKeepsListenerAlive)
{
    // Non-positive row count: the size binding for the runtime-sized
    // extent is rejected by admission, not by a crash.
    const JsonValue bad = request(
        "{\"type\":\"eval\",\"program\":\"spmv\","
        "\"sizes\":{\"rows\":-5}}");
    ASSERT_TRUE(bad.get("ok"));
    EXPECT_FALSE(bad.get("ok")->asBool());
    ASSERT_NE(bad.get("error"), nullptr);
    EXPECT_NE(bad.get("error")->asString().find("rows"),
              std::string::npos);

    // Unknown size key on the same program: also a clean error.
    const JsonValue unknown = request(
        "{\"type\":\"eval\",\"program\":\"spmv\","
        "\"sizes\":{\"sizeExpr\":7}}");
    ASSERT_TRUE(unknown.get("ok"));
    EXPECT_FALSE(unknown.get("ok")->asBool());

    // The listener survived both: a well-formed request still works.
    const JsonValue good = request(
        "{\"type\":\"eval\",\"program\":\"spmv\","
        "\"sizes\":{\"rows\":256,\"avgdeg\":3}}");
    ASSERT_TRUE(good.get("ok"));
    EXPECT_TRUE(good.get("ok")->asBool());
}

} // namespace
