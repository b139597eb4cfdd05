/**
 * @file
 * The NPP_PREDICT* knobs go through the hardened env helpers: garbage
 * values warn and fall back instead of silently misconfiguring the
 * predictor, and the model path resolves from the sample directory when
 * not given explicitly. Runs as its own binary so setenv/unsetenv never
 * races another fixture.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "predict/predict.h"

using namespace npp;

namespace {

class PredictEnvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearAll();
    }

    void
    TearDown() override
    {
        clearAll();
    }

    static void
    clearAll()
    {
        ::unsetenv("NPP_PREDICT");
        ::unsetenv("NPP_PREDICT_DIR");
        ::unsetenv("NPP_PREDICT_MODEL");
    }
};

TEST_F(PredictEnvTest, UnsetEnvironmentYieldsDefaults)
{
    const PredictOptions opts = predictOptionsFromEnv();
    EXPECT_FALSE(opts.enabled);
    EXPECT_TRUE(opts.sampleDir.empty());
    EXPECT_TRUE(opts.modelPath.empty());
}

TEST_F(PredictEnvTest, ValidValuesAreHonored)
{
    ::setenv("NPP_PREDICT", "1", 1);
    ::setenv("NPP_PREDICT_DIR", "/tmp/pstore", 1);
    const PredictOptions opts = predictOptionsFromEnv();
    EXPECT_TRUE(opts.enabled);
    EXPECT_EQ(opts.sampleDir, "/tmp/pstore");
    // No explicit model path: it resolves inside the sample directory.
    EXPECT_EQ(opts.modelPath, "/tmp/pstore/model.nppprd");
}

TEST_F(PredictEnvTest, ExplicitModelPathWinsOverDirDefault)
{
    ::setenv("NPP_PREDICT_DIR", "/tmp/pstore", 1);
    ::setenv("NPP_PREDICT_MODEL", "/tmp/elsewhere/m.nppprd", 1);
    const PredictOptions opts = predictOptionsFromEnv();
    EXPECT_EQ(opts.modelPath, "/tmp/elsewhere/m.nppprd");
}

TEST_F(PredictEnvTest, GarbageBoolFallsBackDisabled)
{
    for (const char *bad : {"maybe", "2", "yes please", ""}) {
        ::setenv("NPP_PREDICT", bad, 1);
        EXPECT_FALSE(predictOptionsFromEnv().enabled)
            << "NPP_PREDICT=" << bad;
    }
}

TEST_F(PredictEnvTest, WhitespaceOnlyPathsMeanUnset)
{
    ::setenv("NPP_PREDICT_DIR", "   ", 1);
    ::setenv("NPP_PREDICT_MODEL", "  ", 1);
    const PredictOptions opts = predictOptionsFromEnv();
    EXPECT_TRUE(opts.sampleDir.empty());
    EXPECT_TRUE(opts.modelPath.empty());
}

TEST_F(PredictEnvTest, InitFromEnvWithMissingModelStaysInFallback)
{
    ::setenv("NPP_PREDICT", "1", 1);
    ::setenv("NPP_PREDICT_MODEL", "/tmp/definitely/not/there.nppprd", 1);
    PredictRuntime &rt = PredictRuntime::instance();
    rt.initFromEnv();
    EXPECT_TRUE(rt.active());
    EXPECT_EQ(rt.model(), nullptr);
    const PredictStats stats = rt.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.modelVersion, 0u);

    // Reset the process-global runtime for any later fixture.
    clearAll();
    rt.initFromEnv();
    EXPECT_FALSE(rt.active());
}

} // namespace
