// Property-based sweeps over cross-cutting invariants: string matching
// against reference implementations, edit-distance metric laws, SQL
// execution against an in-memory oracle, engine option-equivalence on
// randomized queries, and IOC recognizer well-formedness on fuzzed text.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/levenshtein.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/strings.h"
#include "nlp/ioc.h"
#include "nlp/protect.h"
#include "storage/relational/database.h"

namespace raptor {
namespace {

// ------------------------------------------------------------ LIKE matching

/// Reference LIKE matcher (exponential recursion, obviously correct).
bool LikeRef(std::string_view text, std::string_view pattern) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '%') {
    for (size_t i = 0; i <= text.size(); ++i) {
      if (LikeRef(text.substr(i), pattern.substr(1))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern[0] == '_' || pattern[0] == text[0]) {
    return LikeRef(text.substr(1), pattern.substr(1));
  }
  return false;
}

class LikeMatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LikeMatchPropertyTest, AgreesWithReference) {
  Rng rng(GetParam());
  static const char kChars[] = "ab/%_.";
  for (int trial = 0; trial < 400; ++trial) {
    std::string text, pattern;
    size_t tlen = rng.Uniform(8);
    size_t plen = rng.Uniform(6);
    for (size_t i = 0; i < tlen; ++i) text += kChars[rng.Uniform(4)];
    for (size_t i = 0; i < plen; ++i) pattern += kChars[rng.Uniform(6)];
    EXPECT_EQ(LikeMatch(text, pattern), LikeRef(text, pattern))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikeMatchPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// -------------------------------------------------------------- Levenshtein

class LevenshteinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LevenshteinPropertyTest, MetricLaws) {
  Rng rng(GetParam());
  auto random_word = [&rng]() {
    std::string w;
    size_t len = rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      w += static_cast<char>('a' + rng.Uniform(4));
    }
    return w;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = random_word(), b = random_word(), c = random_word();
    size_t ab = LevenshteinDistance(a, b);
    size_t ba = LevenshteinDistance(b, a);
    EXPECT_EQ(ab, ba);                                // symmetry
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);         // identity
    size_t ac = LevenshteinDistance(a, c);
    size_t cb = LevenshteinDistance(c, b);
    EXPECT_LE(ab, ac + cb);                           // triangle inequality
    // Length-difference lower bound, max-length upper bound.
    size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    EXPECT_GE(ab, diff);
    EXPECT_LE(ab, std::max(a.size(), b.size()));
    // The bounded variant agrees when within bounds.
    size_t bounded = LevenshteinDistanceBounded(a, b, 64);
    EXPECT_EQ(bounded, ab);
    // ...and saturates when the cap is tight.
    if (ab > 1) {
      EXPECT_GT(LevenshteinDistanceBounded(a, b, 1), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinPropertyTest,
                         ::testing::Values(5u, 6u, 7u));

// ------------------------------------------------------- SQL vs. oracle

/// Random single-table queries must agree with a brute-force row filter.
class SqlOraclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlOraclePropertyTest, FiltersAgreeWithBruteForce) {
  Rng rng(GetParam());
  sql::Database db;
  sql::Schema schema({{"id", sql::ColumnType::kInt64},
                      {"name", sql::ColumnType::kText},
                      {"score", sql::ColumnType::kInt64}});
  ASSERT_TRUE(db.CreateTable("t", schema).ok());
  struct RowData {
    int64_t id;
    std::string name;
    int64_t score;
  };
  std::vector<RowData> rows;
  static const char* kNames[] = {"/bin/tar", "/bin/cat", "/tmp/x.sh",
                                 "/etc/passwd", "/usr/bin/curl"};
  for (int i = 0; i < 60; ++i) {
    RowData r{static_cast<int64_t>(i), kNames[rng.Uniform(5)],
              static_cast<int64_t>(rng.Uniform(100))};
    rows.push_back(r);
    ASSERT_TRUE(db.Insert("t", {sql::Value(r.id), sql::Value(r.name),
                                sql::Value(r.score)})
                    .ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "name").ok());

  for (int trial = 0; trial < 60; ++trial) {
    int64_t threshold = static_cast<int64_t>(rng.Uniform(100));
    std::string name = kNames[rng.Uniform(5)];
    std::string sql_text = StrFormat(
        "SELECT id FROM t WHERE (name = '%s' AND score >= %lld) OR score < "
        "%lld",
        name.c_str(), static_cast<long long>(threshold),
        static_cast<long long>(threshold / 4));
    auto rs = db.Query(sql_text);
    ASSERT_TRUE(rs.ok()) << sql_text;
    std::set<int64_t> got;
    for (const auto& row : rs.value().rows) got.insert(row[0].AsInt());
    std::set<int64_t> expected;
    for (const RowData& r : rows) {
      if ((r.name == name && r.score >= threshold) ||
          r.score < threshold / 4) {
        expected.insert(r.id);
      }
    }
    EXPECT_EQ(got, expected) << sql_text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlOraclePropertyTest,
                         ::testing::Values(101u, 202u, 303u));

// ------------------------------------------- Value hashing vs. Compare()

/// ValueHash/ValueEq back every hash index, IN-list set, and DISTINCT
/// seen-set, so they must stay consistent with Value::Compare across every
/// type pairing — including int/double coercion and numeric-looking text.
class ValueHashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueHashPropertyTest, HashAndEqConsistentWithCompare) {
  Rng rng(GetParam());
  auto random_value = [&rng]() {
    switch (rng.Uniform(6)) {
      case 0: return sql::Value();
      case 1: return sql::Value(static_cast<int64_t>(rng.Uniform(5)));
      // Integral double: must collide with the equal int (1 == 1.0).
      case 2: return sql::Value(static_cast<double>(rng.Uniform(5)));
      case 3: return sql::Value(static_cast<double>(rng.Uniform(5)) + 0.5);
      // Numeric-looking text must NOT equal the number ("1" != 1).
      case 4: return sql::Value(std::to_string(rng.Uniform(5)));
      default: return sql::Value("/bin/p" + std::to_string(rng.Uniform(3)));
    }
  };
  sql::ValueHash hash;
  sql::ValueEq eq;
  std::vector<sql::Value> values;
  for (int i = 0; i < 80; ++i) values.push_back(random_value());
  for (const sql::Value& a : values) {
    for (const sql::Value& b : values) {
      bool equal = a.Compare(b) == 0;
      EXPECT_EQ(eq(a, b), equal)
          << a.ToString() << " vs " << b.ToString();
      if (equal) {
        EXPECT_EQ(hash(a), hash(b)) << a.ToString() << " vs " << b.ToString();
      }
    }
  }
  // Row-level hash/eq: equal rows hash equal, unequal rows compare unequal.
  sql::ValueRowHash row_hash;
  sql::ValueRowEq row_eq;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<sql::Value> row_a, row_b;
    size_t len = rng.Uniform(4);
    for (size_t i = 0; i < len; ++i) {
      row_a.push_back(random_value());
      row_b.push_back(random_value());
    }
    bool equal = true;
    for (size_t i = 0; i < len; ++i) {
      if (row_a[i].Compare(row_b[i]) != 0) equal = false;
    }
    EXPECT_EQ(row_eq(row_a, row_b), equal);
    if (equal) {
      EXPECT_EQ(row_hash(row_a), row_hash(row_b));
    }
    EXPECT_TRUE(row_eq(row_a, row_a));
    EXPECT_EQ(row_hash(row_a), row_hash(row_a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueHashPropertyTest,
                         ::testing::Values(71u, 72u, 73u));

// ------------------------------------- SmallVector / binding-frame slots

/// SmallVector backs the matcher's binding frames; random op sequences
/// must agree with a std::vector reference across the inline/heap spill
/// boundary.
class SmallVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallVectorPropertyTest, AgreesWithVectorReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    SmallVector<uint64_t, 4> sv;
    std::vector<uint64_t> ref;
    for (int op = 0; op < 60; ++op) {
      switch (rng.Uniform(4)) {
        case 0: {
          uint64_t v = rng.Uniform(100);
          sv.push_back(v);
          ref.push_back(v);
          break;
        }
        case 1:
          if (!ref.empty()) {
            sv.pop_back();
            ref.pop_back();
          }
          break;
        case 2: {
          size_t n = rng.Uniform(10);
          uint64_t v = rng.Uniform(100);
          sv.assign(n, v);
          ref.assign(n, v);
          break;
        }
        default:
          if (rng.Uniform(8) == 0) {
            sv.clear();
            ref.clear();
          }
          break;
      }
      ASSERT_EQ(sv.size(), ref.size());
      ASSERT_EQ(sv.empty(), ref.empty());
      for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(sv[i], ref[i]);
      if (!ref.empty()) {
        ASSERT_EQ(sv.back(), ref.back());
      }
      for (uint64_t probe = 0; probe < 5; ++probe) {
        ASSERT_EQ(Contains(sv, probe),
                  std::find(ref.begin(), ref.end(), probe) != ref.end());
      }
    }
    // Copies must be independent of the original.
    SmallVector<uint64_t, 4> copy = sv;
    sv.push_back(7);
    ASSERT_EQ(copy.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(copy[i], ref[i]);
  }
}

/// Binding-frame round trip: a flat slot frame (the matcher's Binding
/// layout — SmallVector indexed by interned slot, sentinel = unbound) must
/// behave exactly like a map keyed by slot under random bind/unbind/read
/// sequences, including slot counts past the inline capacity.
TEST_P(SmallVectorPropertyTest, SlotFrameMatchesMapBinding) {
  constexpr uint64_t kUnbound = static_cast<uint64_t>(-1);
  Rng rng(GetParam() * 131 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t slot_count = 1 + static_cast<uint32_t>(rng.Uniform(20));
    SmallVector<uint64_t, 8> frame(slot_count, kUnbound);
    std::unordered_map<uint32_t, uint64_t> map;
    for (int op = 0; op < 200; ++op) {
      uint32_t slot = static_cast<uint32_t>(rng.Uniform(slot_count));
      switch (rng.Uniform(3)) {
        case 0:  // bind (write)
          frame[slot] = op;
          map[slot] = op;
          break;
        case 1:  // unbind
          frame[slot] = kUnbound;
          map.erase(slot);
          break;
        default:  // read
          break;
      }
      auto it = map.find(slot);
      if (it == map.end()) {
        ASSERT_EQ(frame[slot], kUnbound);
      } else {
        ASSERT_EQ(frame[slot], it->second);
      }
    }
    // Full-frame sweep: bound slots agree everywhere, not just at the
    // last-touched slot.
    for (uint32_t s = 0; s < slot_count; ++s) {
      auto it = map.find(s);
      ASSERT_EQ(frame[s] != kUnbound, it != map.end());
      if (it != map.end()) {
        ASSERT_EQ(frame[s], it->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVectorPropertyTest,
                         ::testing::Values(81u, 82u, 83u));

// --------------------------------------------------- IOC recognizer fuzzing

class IocFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IocFuzzTest, MatchesAreWellFormedOnArbitraryText) {
  Rng rng(GetParam());
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 ./\\:-_@%()\"'\n";
  for (int trial = 0; trial < 100; ++trial) {
    std::string text;
    size_t len = rng.Uniform(400);
    for (size_t i = 0; i < len; ++i) {
      text += kChars[rng.Uniform(sizeof(kChars) - 1)];
    }
    std::vector<nlp::IocMatch> matches = nlp::RecognizeIocs(text);
    size_t last_end = 0;
    for (const nlp::IocMatch& m : matches) {
      // Spans are in-bounds, non-empty, non-overlapping and ordered.
      ASSERT_LE(m.begin, m.end);
      ASSERT_LE(m.end, text.size());
      ASSERT_GE(m.begin, last_end);
      last_end = m.end;
      // The recorded text is exactly the span content.
      EXPECT_EQ(m.text, text.substr(m.begin, m.end - m.begin));
      EXPECT_FALSE(m.text.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IocFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// The protection transform must be loss-free: replacing each recorded
// replacement back into the protected text reproduces the original.
class ProtectionRoundTripTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ProtectionRoundTripTest, RestoreReproducesOriginal) {
  std::string original = GetParam();
  nlp::ProtectedText pt = nlp::ProtectIocs(original);
  std::string restored;
  size_t cursor = 0;
  for (const nlp::Replacement& rep : pt.replacements) {
    restored += pt.text.substr(cursor, rep.begin - cursor);
    restored += rep.ioc.text;
    cursor = rep.end;
  }
  restored += pt.text.substr(cursor);
  EXPECT_EQ(restored, original);
}

INSTANTIATE_TEST_SUITE_P(
    Texts, ProtectionRoundTripTest,
    ::testing::Values(
        "no iocs at all here",
        "the attacker used /bin/tar to read /etc/passwd.",
        "curl connected to 192.168.29.128.",
        R"(dropped C:\Users\v\evil.exe then set HKLM\Run and left)",
        "mail admin@corp.com or visit https://evil.com/x?y=1 now",
        "hash d41d8cd98f00b204e9800998ecf8427e via CVE-2014-6271",
        "/tmp/a.sh /tmp/b.sh /tmp/c.sh back to back",
        ""));

}  // namespace
}  // namespace raptor
