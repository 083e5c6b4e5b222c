// Seeded mutation fuzz for the three text readers that take user input:
// the TA program parser, the grid database reader and the CSV reader.
// Each round mutates a real corpus file (flips, inserts of the readers'
// own metacharacters, deletions, duplicated spans, truncation) and feeds
// the result to the reader. The only contract checked is the one every
// caller relies on: the reader returns a Status — it never crashes, hangs
// or trips a sanitizer. Rounds are bounded so the suite stays fast under
// asan+ubsan.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "io/grid_format.h"
#include "lang/parser.h"

namespace tabular {
namespace {

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(TABULAR_SOURCE_DIR) + "/examples/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic LCG so failures reproduce; no global RNG state.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Bytes the three grammars give meaning to, plus a few that none do.
constexpr char kSpecials[] = "|#!\",\r\n{}();<-*$ \t\\\x7f\x80\xff";

/// One to four random edits of `text`.
std::string Mutate(const std::string& text, Lcg& rng) {
  std::string out = text;
  const size_t edits = 1 + rng.Below(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = rng.Below(out.size() + 1);
    switch (rng.Below(6)) {
      case 0:  // flip one byte to anything
        if (pos < out.size()) out[pos] = static_cast<char>(rng.Next() & 0xff);
        break;
      case 1:  // insert a metacharacter
        out.insert(pos, 1, kSpecials[rng.Below(sizeof(kSpecials) - 1)]);
        break;
      case 2:  // delete a short span
        if (pos < out.size()) out.erase(pos, 1 + rng.Below(8));
        break;
      case 3: {  // duplicate a short span somewhere else
        if (pos >= out.size()) break;
        const std::string span = out.substr(pos, 1 + rng.Below(16));
        out.insert(rng.Below(out.size() + 1), span);
        break;
      }
      case 4:  // truncate
        out.resize(pos);
        break;
      default:  // overwrite with a metacharacter
        if (pos < out.size()) {
          out[pos] = kSpecials[rng.Below(sizeof(kSpecials) - 1)];
        }
        break;
    }
  }
  return out;
}

constexpr int kRoundsPerInput = 4000;

TEST(InputFuzzTest, MutatedExampleProgramsNeverCrashTheParser) {
  const std::vector<std::string> corpus = {
      ReadExample("fig1.ta"), ReadExample("optimize_unroll.ta"),
      ReadExample("sales_restructuring.ta"), ReadExample("split_collapse.ta"),
      ReadExample("while_drain.ta")};
  Lcg rng(0x7A7A);
  size_t parsed = 0;
  for (const std::string& program : corpus) {
    ASSERT_TRUE(lang::ParseProgram(program).ok());
    for (int round = 0; round < kRoundsPerInput; ++round) {
      if (lang::ParseProgram(Mutate(program, rng)).ok()) ++parsed;
    }
  }
  // Both outcomes occur: the mutations reach past the first token.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, corpus.size() * kRoundsPerInput);
}

TEST(InputFuzzTest, MutatedDatabaseFilesNeverCrashTheGridReader) {
  const std::string db = ReadExample("sales.tdb");
  ASSERT_TRUE(io::ParseDatabase(db).ok());
  Lcg rng(0x7DB);
  size_t parsed = 0;
  for (int round = 0; round < 4 * kRoundsPerInput; ++round) {
    if (io::ParseDatabase(Mutate(db, rng)).ok()) ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 4u * kRoundsPerInput);
}

TEST(InputFuzzTest, MutatedQuotedCsvNeverCrashesTheCsvReader) {
  // Quoted fields with embedded delimiters, doubled quotes, CRLF and a
  // quoted line break, an empty quoted field and an empty unquoted one.
  const std::string csv =
      "Part,Region,Note\r\n"
      "\"nuts\",east,\"say \"\"hi\"\"\"\r\n"
      "\"bolts, large\",\"west\",\"two\nlines\"\r\n"
      "screws,,\"\"\r\n";
  ASSERT_TRUE(io::ReadCsvRelation("Sales", csv).ok());
  Lcg rng(0xC5F);
  size_t parsed = 0;
  for (int round = 0; round < 4 * kRoundsPerInput; ++round) {
    if (io::ReadCsvRelation("Sales", Mutate(csv, rng)).ok()) ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 4u * kRoundsPerInput);
}

}  // namespace
}  // namespace tabular
