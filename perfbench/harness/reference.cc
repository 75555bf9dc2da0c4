// Reference evaluation that shares no code with the engine under test: a
// hand-written parser for the integer-only subset of the syntax the
// workloads generate, a naive fixpoint with nested-loop joins, and a BFS
// closure for transitive closure.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"

namespace perfbench {

namespace {

/// A term of a parsed atom: a variable (index into the rule's variable
/// list) or an integer constant.
struct RefTerm {
  bool is_var = false;
  int var = -1;
  std::int64_t value = 0;
};

struct RefAtom {
  std::string pred;
  std::vector<RefTerm> args;
};

struct RefRule {
  RefAtom head;
  std::vector<RefAtom> body;
  int num_vars = 0;
};

class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == '%') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }
  bool Eat(const char* token) {
    SkipSpace();
    const std::size_t n = std::char_traits<char>::length(token);
    if (text_.compare(pos_, n, token) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Ident(std::string* out) {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_ || std::isdigit(static_cast<unsigned char>(
                             text_[start]))) {
      pos_ = start;
      return false;
    }
    *out = text_.substr(start, pos_ - start);
    return true;
  }
  bool Int(std::int64_t* out) {
    SkipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      pos_ = start;
      return false;
    }
    *out = std::strtoll(text_.c_str() + start, nullptr, 10);
    return true;
  }
  std::size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Parses `pred(t, ...)`; identifiers become variables numbered in `vars`.
bool ParseAtom(Scanner* s, std::vector<std::string>* vars, RefAtom* atom) {
  if (!s->Ident(&atom->pred)) return false;
  if (!s->Eat("(")) return true;  // zero-ary atom
  if (s->Eat(")")) return true;
  do {
    RefTerm term;
    std::string name;
    if (s->Int(&term.value)) {
      term.is_var = false;
    } else if (s->Ident(&name)) {
      if (vars == nullptr) return false;  // facts are ground
      auto it = std::find(vars->begin(), vars->end(), name);
      term.is_var = true;
      term.var = static_cast<int>(it - vars->begin());
      if (it == vars->end()) vars->push_back(name);
    } else {
      return false;
    }
    atom->args.push_back(term);
  } while (s->Eat(","));
  return s->Eat(")");
}

bool ParseRules(const std::string& text, std::vector<RefRule>* rules,
                std::string* error) {
  Scanner s(text);
  while (!s.AtEnd()) {
    RefRule rule;
    std::vector<std::string> vars;
    if (!ParseAtom(&s, &vars, &rule.head)) {
      *error = "reference: bad rule head at offset " + std::to_string(s.pos());
      return false;
    }
    if (s.Eat(":-")) {
      do {
        RefAtom atom;
        if (!ParseAtom(&s, &vars, &atom)) {
          *error = "reference: bad body atom at offset " +
                   std::to_string(s.pos());
          return false;
        }
        rule.body.push_back(std::move(atom));
      } while (s.Eat(","));
    }
    if (!s.Eat(".")) {
      *error = "reference: expected '.' at offset " + std::to_string(s.pos());
      return false;
    }
    rule.num_vars = static_cast<int>(vars.size());
    rules->push_back(std::move(rule));
  }
  return true;
}

struct VecHash {
  std::size_t operator()(const std::vector<std::int64_t>& v) const {
    std::size_t h = v.size();
    for (std::int64_t x : v) {
      h ^= std::hash<std::int64_t>{}(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

}  // namespace

struct ReferenceDb::Rel {
  std::size_t arity = 0;
  std::vector<std::vector<std::int64_t>> rows;
  std::unordered_set<std::vector<std::int64_t>, VecHash> set;
  /// Per-column value -> row numbers, built for a frozen round.
  std::vector<std::unordered_map<std::int64_t, std::vector<std::size_t>>>
      index;

  bool Add(std::vector<std::int64_t> row) {
    if (!set.insert(row).second) return false;
    rows.push_back(std::move(row));
    return true;
  }
  void BuildIndex() {
    index.assign(arity, {});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < arity; ++c) index[c][rows[r][c]].push_back(r);
    }
  }
};

ReferenceDb::Rel& ReferenceDb::Mutable(const std::string& pred,
                                       std::size_t arity) {
  std::shared_ptr<Rel>& rel = rels_[pred];
  if (!rel) {
    rel = std::make_shared<Rel>();
    rel->arity = arity;
  }
  return *rel;
}

bool ReferenceDb::AddFactsText(const std::string& text, std::string* error) {
  Scanner s(text);
  while (!s.AtEnd()) {
    RefAtom atom;
    if (!ParseAtom(&s, nullptr, &atom) || !s.Eat(".")) {
      *error = "reference: bad fact at offset " + std::to_string(s.pos());
      return false;
    }
    std::vector<std::int64_t> row;
    for (const RefTerm& t : atom.args) row.push_back(t.value);
    Mutable(atom.pred, row.size()).Add(std::move(row));
  }
  return true;
}

bool ReferenceDb::Evaluate(const std::string& program_text,
                           std::string* error) {
  std::vector<RefRule> rules;
  if (!ParseRules(program_text, &rules, error)) return false;
  for (const RefRule& rule : rules) {
    Mutable(rule.head.pred, rule.head.args.size());
    for (const RefAtom& atom : rule.body) Mutable(atom.pred, atom.args.size());
  }
  // Naive (Jacobi) iteration: every rule is matched against the database as
  // it stood at the start of the round; new facts land after the round.
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [name, rel] : rels_) rel->BuildIndex();
    std::vector<std::pair<Rel*, std::vector<std::int64_t>>> derived;
    for (const RefRule& rule : rules) {
      std::vector<std::int64_t> binding(static_cast<std::size_t>(rule.num_vars));
      std::vector<bool> bound(static_cast<std::size_t>(rule.num_vars), false);
      Rel* head = rels_[rule.head.pred].get();
      // Depth-first nested loops over the body in textual order.
      std::function<void(std::size_t)> match = [&](std::size_t depth) {
        if (depth == rule.body.size()) {
          std::vector<std::int64_t> row;
          for (const RefTerm& t : rule.head.args) {
            row.push_back(t.is_var ? binding[static_cast<std::size_t>(t.var)]
                                   : t.value);
          }
          if (!head->set.count(row)) derived.emplace_back(head, std::move(row));
          return;
        }
        const RefAtom& atom = rule.body[depth];
        const Rel& rel = *rels_[atom.pred];
        // Probe on the first argument whose value is known.
        const std::vector<std::size_t>* candidates = nullptr;
        std::vector<std::size_t> all;
        for (std::size_t c = 0; c < atom.args.size() && !candidates; ++c) {
          const RefTerm& t = atom.args[c];
          if (t.is_var && !bound[static_cast<std::size_t>(t.var)]) continue;
          const std::int64_t key =
              t.is_var ? binding[static_cast<std::size_t>(t.var)] : t.value;
          auto it = rel.index[c].find(key);
          static const std::vector<std::size_t> kNone;
          candidates = it == rel.index[c].end() ? &kNone : &it->second;
        }
        if (!candidates) {
          all.resize(rel.rows.size());
          for (std::size_t r = 0; r < all.size(); ++r) all[r] = r;
          candidates = &all;
        }
        for (std::size_t r : *candidates) {
          const std::vector<std::int64_t>& row = rel.rows[r];
          std::vector<int> newly;
          bool ok = true;
          for (std::size_t c = 0; c < atom.args.size() && ok; ++c) {
            const RefTerm& t = atom.args[c];
            if (!t.is_var) {
              ok = row[c] == t.value;
            } else if (bound[static_cast<std::size_t>(t.var)]) {
              ok = row[c] == binding[static_cast<std::size_t>(t.var)];
            } else {
              bound[static_cast<std::size_t>(t.var)] = true;
              binding[static_cast<std::size_t>(t.var)] = row[c];
              newly.push_back(t.var);
            }
          }
          if (ok) match(depth + 1);
          for (int v : newly) bound[static_cast<std::size_t>(v)] = false;
        }
      };
      match(0);
    }
    for (auto& [rel, row] : derived) changed |= rel->Add(std::move(row));
  }
  for (auto& [name, rel] : rels_) rel->index.clear();
  return true;
}

FactDigest ReferenceDb::Digest(const std::vector<std::string>& preds) const {
  FactDigest digest;
  for (const std::string& pred : preds) {
    auto it = rels_.find(pred);
    if (it == rels_.end()) continue;
    for (const auto& row : it->second->rows) {
      digest.Add(pred, row.data(), row.size());
    }
  }
  return digest;
}

std::vector<std::pair<std::int64_t, std::int64_t>> ParseBinaryFacts(
    const std::string& text, const std::string& pred) {
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  Scanner s(text);
  while (!s.AtEnd()) {
    RefAtom atom;
    if (!ParseAtom(&s, nullptr, &atom) || !s.Eat(".")) break;
    if (atom.pred == pred && atom.args.size() == 2) {
      edges.emplace_back(atom.args[0].value, atom.args[1].value);
    }
  }
  return edges;
}

namespace {

using Adjacency = std::unordered_map<std::int64_t, std::vector<std::int64_t>>;

Adjacency BuildAdjacency(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  Adjacency adj;
  for (const auto& [from, to] : edges) adj[from].push_back(to);
  return adj;
}

std::vector<std::int64_t> Bfs(const Adjacency& adj, std::int64_t source) {
  std::unordered_set<std::int64_t> seen;
  std::deque<std::int64_t> queue{source};
  std::vector<std::int64_t> reached;
  while (!queue.empty()) {
    const std::int64_t node = queue.front();
    queue.pop_front();
    auto it = adj.find(node);
    if (it == adj.end()) continue;
    for (std::int64_t next : it->second) {
      if (seen.insert(next).second) {
        reached.push_back(next);
        queue.push_back(next);
      }
    }
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

}  // namespace

FactDigest ReferenceClosureDigest(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  const Adjacency adj = BuildAdjacency(edges);
  FactDigest digest;
  for (const auto& [source, unused] : adj) {
    for (std::int64_t target : Bfs(adj, source)) {
      const std::int64_t args[2] = {source, target};
      digest.Add("path", args, 2);
    }
  }
  return digest;
}

std::vector<std::int64_t> ReferenceReachable(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges,
    std::int64_t source) {
  return Bfs(BuildAdjacency(edges), source);
}

}  // namespace perfbench
