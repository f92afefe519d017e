// End-to-end integration: the external-data adoption path.
// TSV rows -> graph -> save/load graph -> Dataset -> corpus -> engine
// build -> artifact save/load -> identical query results.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/queries.h"
#include "data/tsv_importer.h"
#include "graph/graph_io.h"
#include "scoped_temp_dir.h"

namespace kpef {
namespace {

// Generates a small TSV bibliography with planted group/topic structure
// (like the synthetic generator, but through the public import path).
std::string MakeTsv(size_t papers_per_group, size_t groups) {
  Rng rng(77);
  std::ostringstream out;
  out << "# paper_id\tauthors\tvenue\ttopics\tcitations\ttext\n";
  size_t paper_counter = 0;
  for (size_t g = 0; g < groups; ++g) {
    const std::string topic = "topic" + std::to_string(g % 4);
    for (size_t p = 0; p < papers_per_group; ++p) {
      const std::string id = "p" + std::to_string(paper_counter++);
      // 2-3 authors from the group's pool of 5.
      std::string authors;
      const size_t num_authors = 2 + rng.Uniform(2);
      for (size_t a = 0; a < num_authors; ++a) {
        if (!authors.empty()) authors += '|';
        authors += "g" + std::to_string(g) + "a" +
                   std::to_string(rng.Uniform(5));
      }
      std::string citations;
      if (paper_counter > 2 && rng.Bernoulli(0.7)) {
        citations = "p" + std::to_string(rng.Uniform(paper_counter - 1));
      }
      std::string text;
      for (int w = 0; w < 20; ++w) {
        if (!text.empty()) text += ' ';
        text += (rng.Bernoulli(0.4) ? topic + "w" : std::string("cw")) +
                std::to_string(rng.Uniform(30));
      }
      out << id << '\t' << authors << '\t' << "venue" << (g % 3) << '\t'
          << topic << '\t' << citations << '\t' << text << '\n';
    }
  }
  return out.str();
}

TEST(IntegrationTest, TsvToServedQueriesEndToEnd) {
  // 1. Import a bibliography.
  std::stringstream tsv(MakeTsv(10, 12));
  auto imported = ImportTsvDataset(tsv, "integration");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  // 2. Round-trip the graph through the text format.
  const ScopedTempDir tmp("integration_test");
  const std::string graph_path = tmp.File("graph.kg");
  ASSERT_TRUE(SaveGraph(imported->graph, graph_path).ok());
  auto reloaded_graph = LoadGraph(graph_path);
  ASSERT_TRUE(reloaded_graph.ok());
  auto dataset = DatasetFromGraph(std::move(*reloaded_graph), "reloaded");
  ASSERT_TRUE(dataset.ok());

  // 3. Build the full pipeline.
  const Corpus corpus = BuildPaperCorpus(*dataset);
  EngineConfig config;
  config.k = 2;
  config.encoder.dim = 24;
  config.trainer.epochs = 2;
  config.top_m = 30;
  config.pg_index.knn_k = 6;
  auto engine = ExpertFindingEngine::Build(&*dataset, &corpus, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // 4. Persist artifacts and reload into a "serving" engine.
  const std::string model_dir = tmp.path().string();
  ASSERT_TRUE((*engine)->SaveArtifacts(model_dir).ok());
  auto serving = ExpertFindingEngine::LoadFromArtifacts(&*dataset, &corpus,
                                                        config, model_dir);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  // 5. Serve queries: results identical between builder and server, and
  //    non-empty for every query.
  const QuerySet queries = GenerateQueries(*dataset, 5, 42);
  for (const Query& q : queries.queries) {
    const auto built = (*engine)->FindExperts(q.text, 8);
    const auto served = (*serving)->FindExperts(q.text, 8);
    ASSERT_FALSE(built.empty());
    ASSERT_EQ(built.size(), served.size());
    for (size_t i = 0; i < built.size(); ++i) {
      EXPECT_EQ(built[i].author, served[i].author);
      EXPECT_DOUBLE_EQ(built[i].score, served[i].score);
    }
  }
}

}  // namespace
}  // namespace kpef
