//===- Trophy.cpp - Persistent minimized-failure corpus -------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Trophy.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace tdr {
namespace fuzz {

namespace {

void escape(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

bool writeFile(const std::string &Path, const std::string &Text,
               std::string &Error) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  Out << Text;
  Out.close();
  if (!Out) {
    Error = "write failed for " + Path;
    return false;
  }
  return true;
}

bool readFile(const std::string &Path, std::string &Text, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  return true;
}

} // namespace

bool writeTrophy(const std::string &Dir, const Trophy &T, std::string &Error) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create " + Dir + ": " + EC.message();
    return false;
  }

  std::string Json;
  Json += "{\n";
  Json += strFormat("  \"schema\": \"%s\",\n", TrophySchema);
  Json += strFormat("  \"version\": %d,\n", TrophyVersion);
  Json += "  \"name\": ";
  escape(Json, T.Name);
  Json += ",\n  \"status\": ";
  escape(Json, T.Status);
  Json += strFormat(",\n  \"kind\": \"%s\",\n", findingKindName(T.Kind));
  Json += strFormat("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(T.Seed));
  Json += strFormat("  \"config\": {\n    \"check_repair\": %s,\n",
                    T.Config.CheckRepair ? "true" : "false");
  Json += strFormat("    \"all_constructs\": %s\n  },\n",
                    T.Config.AllConstructs ? "true" : "false");
  Json += "  \"detail\": ";
  escape(Json, T.Detail);
  Json += ",\n  \"expected\": ";
  escape(Json, T.Expected);
  Json += ",\n  \"actual\": ";
  escape(Json, T.Actual);
  Json += strFormat(",\n  \"source_file\": \"%s.hj\"\n}\n", T.Name.c_str());

  std::string Base = (fs::path(Dir) / T.Name).string();
  if (!writeFile(Base + ".hj", T.Source, Error))
    return false;
  return writeFile(Base + ".trophy.json", Json, Error);
}

bool readTrophy(const std::string &JsonPath, Trophy &Out, std::string &Error) {
  std::string Text;
  if (!readFile(JsonPath, Text, Error))
    return false;
  json::ParseResult P = json::parse(Text);
  if (!P.Ok) {
    Error = JsonPath + ": " + P.Error;
    return false;
  }
  const json::Value &Doc = P.Doc;
  if (Doc.getString("schema") != TrophySchema) {
    Error = JsonPath + ": not a " + std::string(TrophySchema) + " document";
    return false;
  }
  if (static_cast<int>(Doc.getNumber("version", -1)) != TrophyVersion) {
    Error = JsonPath + ": unsupported trophy version";
    return false;
  }

  Out = Trophy();
  Out.Name = Doc.getString("name");
  Out.Status = Doc.getString("status", "open");
  if (Out.Name.empty()) {
    Error = JsonPath + ": missing name";
    return false;
  }
  if (Out.Status != "open" && Out.Status != "fixed") {
    Error = JsonPath + ": status must be \"open\" or \"fixed\"";
    return false;
  }
  if (!parseFindingKind(Doc.getString("kind"), Out.Kind)) {
    Error = JsonPath + ": unknown finding kind \"" + Doc.getString("kind") +
            "\"";
    return false;
  }
  Out.Seed = static_cast<uint64_t>(Doc.getNumber("seed"));
  Out.Detail = Doc.getString("detail");
  Out.Expected = Doc.getString("expected");
  Out.Actual = Doc.getString("actual");

  if (const json::Value *Config = Doc.get("config")) {
    Out.Config.CheckRepair = Config->getBool("check_repair", true);
    Out.Config.AllConstructs = Config->getBool("all_constructs", false);
  }

  std::string SourceFile = Doc.getString("source_file", Out.Name + ".hj");
  fs::path SourcePath = fs::path(JsonPath).parent_path() / SourceFile;
  return readFile(SourcePath.string(), Out.Source, Error);
}

std::vector<std::string> listTrophies(const std::string &Dir) {
  std::vector<std::string> Paths;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    const fs::path &P = It->path();
    if (P.native().size() >= 12 &&
        P.string().rfind(".trophy.json") == P.string().size() - 12)
      Paths.push_back(P.string());
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

} // namespace fuzz
} // namespace tdr
