// Exporter: rendering formats, file emission, disabled-mode no-op.
#include "report/exporter.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/table.h"
#include "test_util.h"

namespace nnr::report {
namespace {

namespace fs = std::filesystem;

core::TextTable sample_table() {
  core::TextTable t({"Variant", "Churn %"});
  t.add_row({"ALGO+IMPL", "25.3"});
  t.add_row({"IMPL", "14.7"});
  return t;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ExporterTest : public ::testing::Test {
 protected:
  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path() / "out";
};

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(RenderJson, ContainsHeadersAndRows) {
  const std::string js = render_json(sample_table());
  EXPECT_NE(js.find("\"headers\": [\"Variant\", \"Churn %\"]"),
            std::string::npos);
  EXPECT_NE(js.find("{\"Variant\": \"ALGO+IMPL\", \"Churn %\": \"25.3\"}"),
            std::string::npos);
}

TEST(RenderJson, EmptyTable) {
  const core::TextTable t({"A"});
  const std::string js = render_json(t);
  EXPECT_NE(js.find("\"rows\": [\n  ]"), std::string::npos);
}

TEST(RenderJson, EscapesCellContent) {
  core::TextTable t({"K"});
  t.add_row({"va\"lue"});
  EXPECT_NE(render_json(t).find("va\\\"lue"), std::string::npos);
}

TEST_F(ExporterTest, DisabledExporterWritesNothing) {
  Exporter e("");
  EXPECT_FALSE(e.enabled());
  EXPECT_FALSE(e.write(sample_table(), "fig1", "t1", "Title"));
  EXPECT_TRUE(e.artifacts().empty());
}

TEST_F(ExporterTest, WritesAllThreeFormatsAndIndex) {
  Exporter e(dir_.string());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1", "Figure 1"));
  EXPECT_TRUE(fs::exists(dir_ / "fig1_t1.txt"));
  EXPECT_TRUE(fs::exists(dir_ / "fig1_t1.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "fig1_t1.json"));
  EXPECT_TRUE(fs::exists(dir_ / "index.json"));
  EXPECT_NE(slurp(dir_ / "fig1_t1.txt").find("Figure 1"), std::string::npos);
  EXPECT_NE(slurp(dir_ / "fig1_t1.csv").find("ALGO+IMPL,25.3"),
            std::string::npos);
}

TEST_F(ExporterTest, IndexAccumulatesAcrossWrites) {
  Exporter e(dir_.string());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1"));
  ASSERT_TRUE(e.write(sample_table(), "fig2", "t1", "Second"));
  EXPECT_EQ(e.artifacts().size(), 2u);
  const std::string index = slurp(dir_ / "index.json");
  EXPECT_NE(index.find("\"experiment\": \"fig1\""), std::string::npos);
  EXPECT_NE(index.find("\"experiment\": \"fig2\""), std::string::npos);
  EXPECT_NE(index.find("\"title\": \"Second\""), std::string::npos);
}

TEST_F(ExporterTest, CreatesNestedDirectory) {
  const fs::path nested = dir_ / "a" / "b";
  Exporter e(nested.string());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1"));
  EXPECT_TRUE(fs::exists(nested / "fig1_t1.txt"));
}

TEST_F(ExporterTest, ThrowsOnUnwritableDirectory) {
  // Failure injection: a path that collides with an existing *file* cannot
  // be created as a directory.
  const fs::path blocker = dir_;
  fs::create_directories(blocker.parent_path());
  { std::ofstream out(blocker); out << "x"; }
  Exporter e((blocker / "sub").string());
  EXPECT_THROW(e.write(sample_table(), "fig1", "t1"), std::exception);
}

TEST_F(ExporterTest, OverwritesOnRepeatedWrite) {
  Exporter e(dir_.string());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1", "first"));
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1", "second"));
  EXPECT_NE(slurp(dir_ / "fig1_t1.txt").find("second"), std::string::npos);
}

TEST(SanitizeSlug, LowercasesAndUnderscoresSpaces) {
  EXPECT_EQ(Exporter::sanitize_slug("RTX5000 TC"), "rtx5000_tc");
  EXPECT_EQ(Exporter::sanitize_slug("VGG-19_default"), "vgg-19_default");
  EXPECT_EQ(Exporter::sanitize_slug("already_clean.1"), "already_clean.1");
}

TEST(SanitizeSlug, MapsUnsafeCharactersToUnderscore) {
  EXPECT_EQ(Exporter::sanitize_slug("a/b\\c:d*e"), "a_b_c_d_e");
  EXPECT_EQ(Exporter::sanitize_slug("Fig. 1 (V100)"), "fig._1__v100_");
  EXPECT_EQ(Exporter::sanitize_slug(""), "");
}

TEST_F(ExporterTest, WriteSanitizesArtifactFilenames) {
  Exporter e(dir_.string());
  ASSERT_TRUE(e.write(sample_table(), "Fig 1", "RTX5000 TC", "Appendix"));
  EXPECT_TRUE(fs::exists(dir_ / "fig_1_rtx5000_tc.txt"));
  EXPECT_TRUE(fs::exists(dir_ / "fig_1_rtx5000_tc.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "fig_1_rtx5000_tc.json"));
  // The index records the sanitized identity, so reruns supersede cleanly.
  const std::string index = slurp(dir_ / "index.json");
  EXPECT_NE(index.find("\"experiment\": \"fig_1\""), std::string::npos);
  EXPECT_NE(index.find("\"slug\": \"rtx5000_tc\""), std::string::npos);
}

TEST_F(ExporterTest, IndexJsonIsAWellFormedArrayOfArtifacts) {
  Exporter e(dir_.string());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1", "First"));
  ASSERT_TRUE(e.write(sample_table(), "fig2", "t2", "Second"));
  const std::string index = slurp(dir_ / "index.json");
  EXPECT_EQ(index.front(), '[');
  EXPECT_EQ(index.substr(index.size() - 2), "]\n");
  EXPECT_NE(index.find("{\"experiment\": \"fig1\", \"slug\": \"t1\", "
                       "\"title\": \"First\"}"),
            std::string::npos);
  EXPECT_NE(index.find("{\"experiment\": \"fig2\", \"slug\": \"t2\", "
                       "\"title\": \"Second\"}"),
            std::string::npos);
}

TEST_F(ExporterTest, FromEnvUnsetIsANoOp) {
  ::unsetenv("NNR_OUT_DIR");
  Exporter e = Exporter::from_env();
  EXPECT_FALSE(e.enabled());
  EXPECT_FALSE(e.write(sample_table(), "fig1", "t1"));
  EXPECT_TRUE(e.artifacts().empty());
}

TEST_F(ExporterTest, FromEnvSetWritesUnderTheConfiguredDir) {
  ::setenv("NNR_OUT_DIR", dir_.string().c_str(), 1);
  Exporter e = Exporter::from_env();
  ::unsetenv("NNR_OUT_DIR");
  EXPECT_TRUE(e.enabled());
  ASSERT_TRUE(e.write(sample_table(), "fig1", "t1"));
  EXPECT_TRUE(fs::exists(dir_ / "fig1_t1.txt"));
}

}  // namespace
}  // namespace nnr::report
