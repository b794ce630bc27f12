// Diagnostics engine: severity accounting, suppressions, exit-code contract
// and the two reporters (text, deterministic JSON).
#include "check/diagnostics.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace ftcf::check {
namespace {

TEST(Diagnostics, CountsBySeverity) {
  Diagnostics diag;
  diag.note("lft-incomplete", "S1_0", "one entry unprogrammed");
  diag.warning("rlft-cbb", "", "CBB not constant between levels 1 and 2");
  diag.warning("order-mismatch", "rank 3", "rank 3 on host 7");
  diag.error("cdg-cycle", "", "dependency cycle");
  EXPECT_EQ(diag.notes(), 1u);
  EXPECT_EQ(diag.warnings(), 2u);
  EXPECT_EQ(diag.errors(), 1u);
  EXPECT_EQ(diag.findings().size(), 4u);
  EXPECT_EQ(diag.suppressed(), 0u);
}

TEST(Diagnostics, ExitCodeContract) {
  Diagnostics clean;
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.exit_code(), 0);
  EXPECT_EQ(clean.exit_code(/*strict=*/true), 0);

  Diagnostics noted;
  noted.note("lft-incomplete", "", "expected under faults");
  EXPECT_EQ(noted.exit_code(), 0);
  EXPECT_EQ(noted.exit_code(true), 0) << "notes never gate";

  Diagnostics warned;
  warned.warning("rlft-cbb", "", "unbalanced");
  EXPECT_EQ(warned.exit_code(), 0);
  EXPECT_EQ(warned.exit_code(true), 1) << "warnings gate only under strict";

  Diagnostics errored;
  errored.error("cdg-cycle", "", "cycle");
  EXPECT_EQ(errored.exit_code(), 1);
  EXPECT_EQ(errored.exit_code(true), 1);
}

TEST(Diagnostics, SuppressionsByRuleAndLocation) {
  const Suppressions sup = Suppressions::parse_string(
      "# baseline\n"
      "rlft-cbb\n"
      "order-mismatch:rank 3\n");
  EXPECT_EQ(sup.size(), 2u);

  Diagnostics diag;
  diag.set_suppressions(sup);
  diag.warning("rlft-cbb", "anywhere", "suppressed everywhere");
  diag.warning("order-mismatch", "rank 3", "suppressed by location");
  diag.warning("order-mismatch", "rank 4", "kept: location differs");
  EXPECT_EQ(diag.suppressed(), 2u);
  ASSERT_EQ(diag.findings().size(), 1u);
  EXPECT_EQ(diag.findings().front().location, "rank 4");
}

TEST(Diagnostics, SuppressionParsingRejectsGarbage) {
  EXPECT_THROW((void)Suppressions::parse_string("not a rule id!!\n"),
               util::ParseError);
}

TEST(Diagnostics, TextReportShapes) {
  Diagnostics diag;
  diag.error("cdg-cycle", "S1_0", "dependency cycle through S1_0");
  std::ostringstream oss;
  diag.write_text(oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("error[cdg-cycle]"), std::string::npos) << text;
  EXPECT_NE(text.find("S1_0"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(Diagnostics, JsonIsDeterministicAndEscaped) {
  Diagnostics diag;
  diag.warning("rlft-cbb", "level \"1\"", "a\\b\n");
  std::ostringstream a, b;
  diag.write_json(a, {{"tool", "test"}, {"alpha", "first"}});
  diag.write_json(b, {{"alpha", "first"}, {"tool", "test"}});
  EXPECT_EQ(a.str(), b.str()) << "meta must be key-sorted";
  EXPECT_NE(a.str().find("\\\"1\\\""), std::string::npos) << a.str();
  EXPECT_NE(a.str().find("a\\\\b\\n"), std::string::npos) << a.str();
  EXPECT_NE(a.str().find("\"summary\""), std::string::npos);
  EXPECT_NE(a.str().find("\"findings\""), std::string::npos);
  // The meta keys come out sorted regardless of insertion order.
  EXPECT_LT(a.str().find("\"alpha\""), a.str().find("\"tool\""));
}

TEST(Diagnostics, SuppressionParsingHandlesPaddingAndComments) {
  struct Case {
    const char* text;
    std::size_t entries;
    const char* first_rule;
  };
  // Trailing comments, blank lines and whitespace padding must all parse to
  // the same clean entries a tidy file would.
  const Case cases[] = {
      {"rlft-cbb  # trailing comment\n", 1, "rlft-cbb"},
      {"\n\n  \t\nrlft-cbb\n\n", 1, "rlft-cbb"},
      {"  rlft-cbb  \n", 1, "rlft-cbb"},
      {"order-mismatch : rank 3 \n", 1, "order-mismatch"},
      {"\t order-mismatch:rank 3\t# why: legacy racks\n", 1, "order-mismatch"},
      {"# only a comment\n\n", 0, ""},
      {"rlft-cbb\nrlft-cbb:level 1\n", 2, "rlft-cbb"},
  };
  for (const Case& c : cases) {
    const Suppressions sup = Suppressions::parse_string(c.text);
    EXPECT_EQ(sup.size(), c.entries) << '"' << c.text << '"';
    if (c.entries > 0) {
      ASSERT_FALSE(sup.rules().empty()) << '"' << c.text << '"';
      EXPECT_EQ(sup.rules().front(), c.first_rule) << '"' << c.text << '"';
    }
  }
  // Padded location entries still match findings at that location.
  Diagnostics diag;
  diag.set_suppressions(Suppressions::parse_string("order-mismatch : rank 3\n"));
  diag.warning("order-mismatch", "rank 3", "padded entry must match");
  EXPECT_EQ(diag.suppressed(), 1u);
  EXPECT_TRUE(diag.findings().empty());
}

TEST(Diagnostics, KnownRuleCatalogAnswersMembership) {
  EXPECT_TRUE(is_known_rule("cdg-cycle"));
  EXPECT_TRUE(is_known_rule("hsd-violation"));
  EXPECT_TRUE(is_known_rule("cert-ok"));
  EXPECT_TRUE(is_known_rule("vl-assignment"));
  EXPECT_TRUE(is_known_rule("cdg-adaptive-cycle"));
  EXPECT_TRUE(is_known_rule("blame-order-mismatch"))
      << "blame-<rule> cross-references are known iff <rule> is";
  EXPECT_FALSE(is_known_rule("blame-no-such-rule"));
  EXPECT_FALSE(is_known_rule("no-such-rule"));
  EXPECT_FALSE(is_known_rule("credit-loop")) << "retired rule";
  EXPECT_FALSE(is_known_rule("credit-cdg-mismatch")) << "retired rule";
  EXPECT_FALSE(is_known_rule(""));
  for (const std::string_view rule : known_rule_ids())
    EXPECT_TRUE(is_known_rule(rule)) << rule;
}

TEST(Diagnostics, BaselineRoundTripsThroughParse) {
  Diagnostics diag;
  diag.warning("rlft-cbb", "level 1", "w1");
  diag.warning("order-mismatch", "", "w2");
  diag.warning("order-mismatch", "", "same entry deduplicated");
  diag.error("cdg-cycle", "", "e1");

  std::ostringstream oss;
  write_baseline(diag, oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("# suppression baseline"), std::string::npos) << text;
  EXPECT_NE(text.find("rlft-cbb:level 1"), std::string::npos) << text;
  EXPECT_NE(text.find("order-mismatch"), std::string::npos) << text;

  // A fresh run with the written baseline suppresses the same findings.
  Diagnostics again;
  again.set_suppressions(Suppressions::parse_string(text));
  again.warning("rlft-cbb", "level 1", "w1");
  again.warning("order-mismatch", "", "w2");
  again.error("cdg-cycle", "", "e1");
  EXPECT_EQ(again.suppressed(), 3u);
  EXPECT_EQ(again.exit_code(/*strict=*/true), 0);
}

TEST(Diagnostics, SuppressionParsingHandlesCrlfLineEndings) {
  struct Case {
    const char* text;
    std::size_t entries;
    const char* rule;
    const char* location;
  };
  // Files hand-edited on Windows (or round-tripped through git with CRLF
  // conversion) must parse identically to their LF twins — in particular the
  // \r must never stick to a location substring, or the entry silently stops
  // matching anything.
  const Case cases[] = {
      {"rlft-cbb\r\n", 1, "rlft-cbb", ""},
      {"rlft-cbb\r\norder-mismatch\r\n", 2, "rlft-cbb", ""},
      {"order-mismatch:rank 3\r\n", 1, "order-mismatch", "rank 3"},
      {"order-mismatch:rank 3 \r\n", 1, "order-mismatch", "rank 3"},
      {"rlft-cbb # comment\r\n", 1, "rlft-cbb", ""},
      {"\r\n\r\nrlft-cbb\r\n\r\n", 1, "rlft-cbb", ""},
      {"rlft-cbb\r", 1, "rlft-cbb", ""},  // lone CR on the final line
  };
  for (const Case& c : cases) {
    const Suppressions sup = Suppressions::parse_string(c.text);
    ASSERT_EQ(sup.size(), c.entries) << '"' << c.text << '"';
    EXPECT_EQ(sup.rules().front(), c.rule) << '"' << c.text << '"';
    Diagnostics diag;
    diag.set_suppressions(sup);
    diag.warning(c.rule, c.location, "must be suppressed");
    EXPECT_EQ(diag.suppressed(), 1u)
        << '"' << c.text << "\" failed to match location '" << c.location
        << "'";
  }
}

TEST(Diagnostics, BaselineDeduplicatesAndSurvivesHostileLocations) {
  struct Case {
    const char* name;
    const char* rule;
    const char* location;
    const char* expect_line;  // what write_baseline must emit for it
  };
  // Locations the parser could never reproduce — comment markers, CR/LF,
  // padding the trimmer would eat — must degrade to suppressing the bare
  // rule instead of writing a line that silently matches nothing.
  const Case cases[] = {
      {"plain", "rlft-cbb", "level 1", "rlft-cbb:level 1"},
      {"empty location", "order-mismatch", "", "order-mismatch"},
      {"hash inside", "order-mismatch", "rank #3", "order-mismatch"},
      {"leading space", "order-partial", " rank 3", "order-partial"},
      {"trailing tab", "updown-turn", "S1_0\t", "updown-turn"},
      {"embedded newline", "route-problem", "a\nb", "route-problem"},
      {"embedded cr", "route-unreachable", "a\rb", "route-unreachable"},
      {"inner spaces ok", "cps-displacement", "stage 2 of 4",
       "cps-displacement:stage 2 of 4"},
  };
  for (const Case& c : cases) {
    Diagnostics diag;
    diag.warning(c.rule, c.location, "m");
    std::ostringstream oss;
    write_baseline(diag, oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find(std::string(c.expect_line) + "\n"), std::string::npos)
        << c.name << " wrote:\n"
        << text;

    // Whatever was written must parse back and suppress the same finding.
    Diagnostics again;
    again.set_suppressions(Suppressions::parse_string(text));
    again.warning(c.rule, c.location, "m");
    EXPECT_EQ(again.suppressed(), 1u) << c.name;
    EXPECT_TRUE(again.findings().empty()) << c.name;
  }

  // Duplicate findings — same rule, same location — must write one line,
  // and distinct locations of one rule must keep their own lines.
  Diagnostics diag;
  diag.warning("rlft-cbb", "level 1", "first");
  diag.warning("rlft-cbb", "level 1", "second (same entry)");
  diag.warning("rlft-cbb", "level 2", "third (new location)");
  diag.error("cdg-cycle", "", "e1");
  diag.error("cdg-cycle", "", "e2 (same entry)");
  std::ostringstream oss;
  write_baseline(diag, oss);
  const std::string text = oss.str();
  const auto count = [&](const std::string& line) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(line); pos != std::string::npos;
         pos = text.find(line, pos + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("rlft-cbb:level 1\n"), 1u) << text;
  EXPECT_EQ(count("rlft-cbb:level 2\n"), 1u) << text;
  EXPECT_EQ(count("cdg-cycle\n"), 1u) << text;

  Diagnostics again;
  again.set_suppressions(Suppressions::parse_string(text));
  again.warning("rlft-cbb", "level 1", "m");
  again.warning("rlft-cbb", "level 2", "m");
  again.error("cdg-cycle", "", "m");
  EXPECT_EQ(again.suppressed(), 3u);
}

TEST(Diagnostics, SuppressedFindingsLeaveJsonSummaryHonest) {
  Diagnostics diag;
  diag.set_suppressions(Suppressions::parse_string("rlft-cbb\n"));
  diag.warning("rlft-cbb", "", "silenced");
  std::ostringstream oss;
  diag.write_json(oss);
  EXPECT_NE(oss.str().find("\"suppressed\":1"), std::string::npos) << oss.str();
  EXPECT_NE(oss.str().find("\"warnings\":0"), std::string::npos);
}

}  // namespace
}  // namespace ftcf::check
