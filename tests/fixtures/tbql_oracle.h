// Brute-force TBQL reference evaluator for the differential tests.
//
// Deliberately independent of the execution engine: it reuses only the
// TBQL parser and analyzer, the pattern compiler run with NO propagated
// constraints, the brute-force SQL/Cypher oracles (sql_oracle.h,
// cypher_oracle.h) and the store's entity and event records. It shares
// nothing with the scheduler, constraint propagation, the pattern DAG,
// refilter or the hash join:
//  1. each pattern's unconstrained data query runs through the SQL or
//     Cypher oracle, giving the pattern's full match list;
//  2. a pattern whose list is empty is excessive and leaves the join;
//  3. the other lists are nested-loop joined in query order on shared
//     non-network entity ids (network entities are flow-scoped and never
//     join; a pattern naming one id as subject and object needs both ends
//     equal);
//  4. temporal relations (skipped when they name an excessive pattern) and
//     attribute relations filter each joined tuple, and the return clause
//     projects it. A network entity takes its attributes from the first
//     joined pattern, in query order, that names it.
// Besides rows and excessive patterns it reports two bounds on the
// engine's matched events: the events of the tuples that produced rows
// (lower), and the events whose entity ids occur in every non-excessive
// pattern naming those entities (upper; it holds when rows exist).
// It is slow by design — tests keep stores small — and memoizes each data
// query's matches, so one oracle serves many queries on one unchanged store.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "engine/compiler.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/sql_parser.h"
#include "storage/store.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"
#include "tests/fixtures/cypher_oracle.h"
#include "tests/fixtures/sql_oracle.h"

namespace raptor::fixtures {

class TbqlOracle {
 public:
  struct Answer {
    std::vector<std::vector<std::string>> rows;
    std::vector<size_t> unmatched_patterns;
    /// Each pattern's unconstrained matched events (none for paths).
    std::vector<std::vector<long long>> pattern_events;
    std::set<long long> row_events;         // lower bound on matched events
    std::set<long long> consistent_events;  // upper bound (rows non-empty)
  };

  explicit TbqlOracle(const storage::AuditStore& store) : store_(store) {}

  Result<Answer> Run(std::string_view text) {
    auto query = tbql::ParseTbql(text);
    if (!query.ok()) return query.status();
    return Run(query.value());
  }

  Result<Answer> Run(const tbql::TbqlQuery& query) {
    auto analyzed = tbql::Analyze(query);
    if (!analyzed.ok()) return analyzed.status();
    query_ = &query;
    aq_ = &analyzed.value();
    size_t n = query.patterns.size();
    audit::Timestamp now = 0;
    for (const audit::SystemEvent& ev : store_.events()) {
      now = std::max(now, ev.end_time);
    }
    lists_.assign(n, {});
    for (size_t i = 0; i < n; ++i) {
      auto dq = engine::CompilePattern(*aq_, i, {}, now);
      if (!dq.ok()) return dq.status();
      auto memo = memo_.find(dq.value().text);
      if (memo == memo_.end()) {
        std::vector<Match> matches;
        RAPTOR_RETURN_NOT_OK(Matches(dq.value(), &matches));
        memo = memo_.emplace(dq.value().text, std::move(matches)).first;
      }
      lists_[i] = memo->second;
    }
    Answer answer;
    answer.pattern_events.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (lists_[i].empty()) answer.unmatched_patterns.push_back(i);
      for (const Match& m : lists_[i]) {
        if (m.has_event) answer.pattern_events[i].push_back(m.event);
      }
    }
    answer.consistent_events = ConsistentEvents();
    chosen_.assign(n, nullptr);
    if (answer.unmatched_patterns.size() < n) Join(0, &answer);
    return answer;
  }

 private:
  struct Match {
    long long subject = 0;
    long long object = 0;
    long long event = 0;
    long long start = 0;
    long long end = 0;
    bool has_event = false;
  };

  Status Matches(const engine::DataQuery& dq, std::vector<Match>* out) const {
    if (dq.backend == engine::Backend::kRelational) {
      auto stmt = sql::ParseSelect(dq.text);
      if (!stmt.ok()) return stmt.status();
      auto rows = SqlOracle(store_.relational()).Run(stmt.value());
      if (!rows.ok()) return rows.status();
      for (const sql::Row& r : rows.value()) {
        out->push_back({r[1].AsInt(), r[2].AsInt(), r[0].AsInt(),
                        r[3].AsInt(), r[4].AsInt(), true});
      }
      return Status::OK();
    }
    auto cypher = graphdb::ParseCypher(dq.text);
    if (!cypher.ok()) return cypher.status();
    auto rows = CypherOracle(store_.graph().graph()).Run(cypher.value());
    if (!rows.ok()) return rows.status();
    for (const CypherOracle::Row& r : rows.value()) {
      Match m{r[0].AsInt(), r[1].AsInt()};
      if (dq.has_event_columns) {
        m = {r[0].AsInt(), r[1].AsInt(), r[2].AsInt(),
             r[3].AsInt(), r[4].AsInt(), true};
      }
      out->push_back(m);
    }
    return Status::OK();
  }

  bool Network(const std::string& id) const {
    return aq_->entities.at(id).type == audit::EntityType::kNetwork;
  }

  /// Ids entity `id` takes in pattern `i`'s list (a pattern naming it as
  /// subject and object: ids that occur at both ends).
  std::set<long long> IdsIn(size_t i, const std::string& id) const {
    const tbql::Pattern& p = query_->patterns[i];
    std::set<long long> subjects, objects, both;
    for (const Match& m : lists_[i]) {
      subjects.insert(m.subject);
      objects.insert(m.object);
    }
    if (p.subject.id != id) return objects;
    if (p.object.id != id) return subjects;
    for (long long v : subjects) {
      if (objects.count(v)) both.insert(v);
    }
    return both;
  }

  std::set<long long> ConsistentEvents() const {
    // Entity id -> ids occurring in every non-excessive pattern naming it.
    std::map<std::string, std::set<long long>> common;
    for (size_t i = 0; i < lists_.size(); ++i) {
      if (lists_[i].empty()) continue;
      const tbql::Pattern& p = query_->patterns[i];
      for (const std::string& id : {p.subject.id, p.object.id}) {
        if (Network(id)) continue;
        std::set<long long> ids = IdsIn(i, id);
        auto it = common.find(id);
        if (it == common.end()) {
          common.emplace(id, std::move(ids));
          continue;
        }
        std::set<long long> both;
        for (long long v : ids) {
          if (it->second.count(v)) both.insert(v);
        }
        it->second = std::move(both);
      }
    }
    std::set<long long> events;
    for (size_t i = 0; i < lists_.size(); ++i) {
      const tbql::Pattern& p = query_->patterns[i];
      for (const Match& m : lists_[i]) {
        bool ok = m.has_event;
        if (!Network(p.subject.id)) {
          ok = ok && common.at(p.subject.id).count(m.subject) > 0;
        }
        if (!Network(p.object.id)) {
          ok = ok && common.at(p.object.id).count(m.object) > 0;
        }
        if (ok) events.insert(m.event);
      }
    }
    return events;
  }

  /// Entity `id` bound to `value` by pattern `i` agrees with every earlier
  /// chosen match naming it.
  bool Agrees(size_t i, const std::string& id, long long value) const {
    if (Network(id)) return true;
    for (size_t j = 0; j < i; ++j) {
      if (chosen_[j] == nullptr) continue;
      const tbql::Pattern& q = query_->patterns[j];
      if (q.subject.id == id && chosen_[j]->subject != value) return false;
      if (q.object.id == id && chosen_[j]->object != value) return false;
    }
    return true;
  }

  void Join(size_t i, Answer* answer) {
    if (i == lists_.size()) return Emit(answer);
    if (lists_[i].empty()) return Join(i + 1, answer);
    const tbql::Pattern& p = query_->patterns[i];
    for (const Match& m : lists_[i]) {
      if (p.subject.id == p.object.id && m.subject != m.object) continue;
      if (!Agrees(i, p.subject.id, m.subject) ||
          !Agrees(i, p.object.id, m.object)) {
        continue;
      }
      chosen_[i] = &m;
      Join(i + 1, answer);
    }
    chosen_[i] = nullptr;
  }

  /// Audit entity bound to TBQL entity `id` (0: none — every pattern
  /// naming it is excessive).
  long long EntityOf(const std::string& id) const {
    for (size_t j = 0; j < chosen_.size(); ++j) {
      if (chosen_[j] == nullptr) continue;
      if (query_->patterns[j].subject.id == id) return chosen_[j]->subject;
      if (query_->patterns[j].object.id == id) return chosen_[j]->object;
    }
    return 0;
  }

  const Match* EventOf(const std::string& pattern_id) const {
    auto it = aq_->pattern_by_id.find(pattern_id);
    return it == aq_->pattern_by_id.end() ? nullptr : chosen_[it->second];
  }

  std::string Attribute(const std::string& id, const std::string& attr) const {
    if (aq_->entities.count(id)) {
      long long e = EntityOf(id);
      return e == 0 ? "" : store_.entities()[e - 1].Attribute(attr);
    }
    const Match* m = EventOf(id);
    if (m == nullptr || !m->has_event) return "";
    if (attr == "id") return std::to_string(m->event);
    if (attr == "start_time") return std::to_string(m->start);
    if (attr == "end_time") return std::to_string(m->end);
    const audit::SystemEvent& ev = store_.EventById(m->event);
    if (attr == "amount") return std::to_string(ev.amount);
    if (attr == "failure_code") return std::to_string(ev.failure_code);
    return audit::EventOpName(ev.op);
  }

  /// `left rel right` per the TBQL grammar: `a before b` holds when a ends
  /// no later than b starts, or, with a [lo-hi] bound, when b.start - a.end
  /// lies in it; `a after b` is `b before a`; `a within[lo-hi] b` bounds
  /// |a.start - b.start| (no bound: the starts coincide).
  bool Temporal(const tbql::TemporalRel& rel) const {
    const Match* a = EventOf(rel.left);
    const Match* b = EventOf(rel.right);
    if (a == nullptr || b == nullptr) return true;  // excessive pattern
    if (!a->has_event || !b->has_event) return false;
    long long lo = std::max<long long>(rel.min_gap, 0);
    if (rel.op == tbql::TemporalOp::kWithin) {
      long long hi = std::max<long long>(rel.max_gap, 0);
      long long d = std::llabs(a->start - b->start);
      return lo <= d && d <= hi;
    }
    if (rel.op == tbql::TemporalOp::kAfter) std::swap(a, b);
    long long gap = b->start - a->end;
    if (rel.min_gap < 0 && rel.max_gap < 0) return gap >= 0;
    return gap >= lo && (rel.max_gap < 0 || gap <= rel.max_gap);
  }

  static bool AsNumber(const std::string& s, long long* v) {
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *v);
    return !s.empty() && ec == std::errc() && end == s.data() + s.size();
  }

  /// Attribute relation: numeric when both sides are integers, else a
  /// string comparison.
  bool AttrHolds(const tbql::AttrRel& rel) const {
    std::string l = Attribute(rel.left_qualifier, rel.left_attr);
    std::string r = Attribute(rel.right_qualifier, rel.right_attr);
    long long ln = 0, rn = 0;
    int c = AsNumber(l, &ln) && AsNumber(r, &rn)
                ? (ln < rn ? -1 : ln > rn ? 1 : 0)
                : l.compare(r);
    switch (rel.op) {
      case tbql::CompareOp::kEq: return c == 0;
      case tbql::CompareOp::kNe: return c != 0;
      case tbql::CompareOp::kLt: return c < 0;
      case tbql::CompareOp::kLe: return c <= 0;
      case tbql::CompareOp::kGt: return c > 0;
      case tbql::CompareOp::kGe: return c >= 0;
    }
    return false;
  }

  void Emit(Answer* answer) {
    for (const tbql::TemporalRel& rel : query_->temporal_rels) {
      if (!Temporal(rel)) return;
    }
    for (const tbql::AttrRel& rel : query_->attr_rels) {
      if (!AttrHolds(rel)) return;
    }
    std::vector<std::string> row;
    for (const tbql::ResolvedReturn& r : aq_->returns) {
      row.push_back(Attribute(r.id, r.attr));
    }
    for (const Match* m : chosen_) {
      if (m != nullptr && m->has_event) answer->row_events.insert(m->event);
    }
    if (query_->distinct) {
      for (const auto& seen : answer->rows) {
        if (seen == row) return;
      }
    }
    answer->rows.push_back(std::move(row));
  }

  const storage::AuditStore& store_;
  const tbql::TbqlQuery* query_ = nullptr;
  const tbql::AnalyzedQuery* aq_ = nullptr;
  std::vector<std::vector<Match>> lists_;
  // Data query text -> its oracle matches: queries sharing a pattern run
  // it once per oracle (the store must not change meanwhile).
  std::map<std::string, std::vector<Match>> memo_;
  std::vector<const Match*> chosen_;
};

}  // namespace raptor::fixtures
