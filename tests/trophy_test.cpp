//===- trophy_test.cpp - Trophy corpus regression runner ------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Runs the checked-in trophy corpus (tests/trophies/): every trophy is a
// minimized fuzz finding persisted with its oracle configuration, and this
// runner turns the corpus into permanent regression tests. "fixed"
// trophies must be clean under the full differential oracle (the bug they
// minimized stays fixed); "open" trophies must still fire their recorded
// finding kind (the reproducer is still a reproducer — flip to "fixed"
// when the bug is repaired). Also pins the trophy file format round-trip.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"
#include "fuzz/Trophy.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace tdr;

#ifndef TDR_TROPHY_DIR
#error "build must define TDR_TROPHY_DIR (path to tests/trophies)"
#endif

namespace {

std::vector<fuzz::Trophy> loadCorpus() {
  std::vector<fuzz::Trophy> Corpus;
  for (const std::string &Path : fuzz::listTrophies(TDR_TROPHY_DIR)) {
    fuzz::Trophy T;
    std::string Error;
    EXPECT_TRUE(fuzz::readTrophy(Path, T, Error)) << Error;
    Corpus.push_back(std::move(T));
  }
  return Corpus;
}

TEST(TrophyCorpus, HasTrophiesAndAllLoad) {
  std::vector<std::string> Paths = fuzz::listTrophies(TDR_TROPHY_DIR);
  ASSERT_FALSE(Paths.empty()) << "no trophies under " << TDR_TROPHY_DIR;
  for (const std::string &Path : Paths) {
    fuzz::Trophy T;
    std::string Error;
    ASSERT_TRUE(fuzz::readTrophy(Path, T, Error)) << Error;
    EXPECT_FALSE(T.Source.empty()) << Path;
  }
}

TEST(TrophyCorpus, FixedTrophiesStayFixed) {
  size_t Checked = 0;
  for (const fuzz::Trophy &T : loadCorpus()) {
    if (T.Status != "fixed")
      continue;
    ++Checked;
    fuzz::OracleOutcome Out = fuzz::runOracle(T.Source, T.Config);
    EXPECT_TRUE(Out.clean())
        << T.Name << " regressed: "
        << (Out.Findings.empty()
                ? "?"
                : fuzz::findingKindName(Out.Findings.front().Kind))
        << (Out.Findings.empty() ? "" : ": " + Out.Findings.front().Detail);
  }
  EXPECT_GT(Checked, 0u) << "corpus has no fixed trophies";
}

TEST(TrophyCorpus, OpenTrophiesStillReproduce) {
  for (const fuzz::Trophy &T : loadCorpus()) {
    if (T.Status != "open")
      continue;
    EXPECT_TRUE(fuzz::oracleFires(T.Source, T.Config, T.Kind))
        << T.Name << " no longer reproduces " << fuzz::findingKindName(T.Kind)
        << " — the bug appears fixed; flip the trophy status to \"fixed\"";
  }
}

//===----------------------------------------------------------------------===//
// File-format round-trip
//===----------------------------------------------------------------------===//

TEST(TrophyFormat, WriteReadRoundTrip) {
  std::string Dir =
      (std::filesystem::path(testing::TempDir()) / "trophy_rt").string();

  fuzz::Trophy T;
  T.Name = "rt-check";
  T.Status = "open";
  T.Kind = fuzz::FindingKind::ReplayDivergence;
  T.Seed = 0xdeadbeefcafeull;
  T.Config.CheckRepair = false;
  T.Config.AllConstructs = true;
  T.Detail = "detail with \"quotes\" and\nnewlines";
  T.Expected = "expected\tkey";
  T.Actual = "actual key";
  T.Source = "func main() {\n  print(1);\n}\n";

  std::string Error;
  ASSERT_TRUE(fuzz::writeTrophy(Dir, T, Error)) << Error;

  std::vector<std::string> Paths = fuzz::listTrophies(Dir);
  ASSERT_EQ(Paths.size(), 1u);

  fuzz::Trophy R;
  ASSERT_TRUE(fuzz::readTrophy(Paths.front(), R, Error)) << Error;
  EXPECT_EQ(R.Name, T.Name);
  EXPECT_EQ(R.Status, T.Status);
  EXPECT_EQ(R.Kind, T.Kind);
  EXPECT_EQ(R.Seed, T.Seed);
  EXPECT_FALSE(R.Config.CheckRepair);
  EXPECT_TRUE(R.Config.AllConstructs);
  EXPECT_EQ(R.Detail, T.Detail);
  EXPECT_EQ(R.Expected, T.Expected);
  EXPECT_EQ(R.Actual, T.Actual);
  EXPECT_EQ(R.Source, T.Source);
}

TEST(TrophyFormat, RejectsMalformedDocuments) {
  std::string Dir =
      (std::filesystem::path(testing::TempDir()) / "trophy_bad").string();
  std::filesystem::create_directories(Dir);

  auto WriteDoc = [&](const char *Name, const std::string &Text) {
    std::string Path = Dir + "/" + Name;
    std::ofstream Out(Path);
    Out << Text;
    return Path;
  };

  fuzz::Trophy T;
  std::string Error;
  EXPECT_FALSE(
      fuzz::readTrophy(WriteDoc("a.trophy.json", "not json"), T, Error));
  EXPECT_FALSE(fuzz::readTrophy(
      WriteDoc("b.trophy.json", "{\"schema\": \"other\"}"), T, Error));
  EXPECT_FALSE(fuzz::readTrophy(
      WriteDoc("c.trophy.json",
               "{\"schema\": \"tdr-trophy\", \"version\": 999}"),
      T, Error));
  EXPECT_FALSE(fuzz::readTrophy(
      WriteDoc("d.trophy.json", "{\"schema\": \"tdr-trophy\", \"version\": 1, "
                                "\"name\": \"d\", \"status\": \"bogus\", "
                                "\"kind\": \"backend-mismatch\"}"),
      T, Error));
  EXPECT_FALSE(fuzz::readTrophy(
      WriteDoc("e.trophy.json", "{\"schema\": \"tdr-trophy\", \"version\": 1, "
                                "\"name\": \"e\", \"status\": \"open\", "
                                "\"kind\": \"no-such-kind\"}"),
      T, Error));
  // Well-formed metadata with a missing .hj sibling also fails.
  EXPECT_FALSE(fuzz::readTrophy(
      WriteDoc("f.trophy.json", "{\"schema\": \"tdr-trophy\", \"version\": 1, "
                                "\"name\": \"f\", \"status\": \"open\", "
                                "\"kind\": \"backend-mismatch\"}"),
      T, Error));
  EXPECT_TRUE(fuzz::listTrophies("/no/such/directory").empty());
}

} // namespace
