#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/system.hpp"
#include "constraint/vocab.hpp"
#include "dpl/program.hpp"

namespace dpart::constraint {

/// Machine-checkable proof certificate writer ("DPRF 1" format).
///
/// A certificate records everything an *independent* checker needs to
/// revalidate one solve without trusting the solver: the ground model
/// (region sizes and full fn tables), the constraint system, the external
/// vocabulary, and then the complete search trail — every candidate
/// considered at every node, every vocabulary-rule prune with its
/// justification, every branch and backtrack — ending in either a solution
/// (plus the final DPL program and the runtime verifier's expectations, so
/// the checker can cross-validate against region/verify semantics) or an
/// infeasibility trace. tools/proof_check replays it; docs/solver.md documents the line
/// grammar with a worked example.
///
/// The format is line-oriented: one event per line, space-separated tokens,
/// DPL expressions (which contain spaces) always last on their line except
/// the `subset` conjunct, whose two expressions are separated by a literal
/// " <= " token (never produced inside an expression).
class ProofLog {
 public:
  // ---- header ----
  void begin(std::size_t pieces);
  void region(const std::string& name, std::size_t size);
  /// Point-valued fn table: fn(domain.lo + i) for every domain index.
  void pointFn(const std::string& id, const std::string& domain,
               const std::string& range, const std::vector<long long>& table);
  /// Range-valued fn table: half-open [lo, hi) per domain index.
  void rangeFn(const std::string& id, const std::string& domain,
               const std::string& range,
               const std::vector<std::pair<long long, long long>>& table);
  void symbol(const std::string& name, bool fixed, const std::string& region);
  /// Emits every conjunct of the system in structured (non-pretty) form.
  void conjuncts(const System& system);
  void vocabulary(const SolverVocabulary& vocab);

  // ---- search trail ----
  void beginSearch();
  void restart(std::size_t attempt, const std::string& heuristic,
               std::size_t budget);
  /// `branchedSymbol` is the symbol assigned on the edge from the parent
  /// ("-" at the root).
  void node(std::size_t id, std::size_t parent,
            const std::string& branchedSymbol);
  void candidate(std::size_t node, std::size_t idx, const std::string& symbol,
                 const dpl::ExprPtr& expr);
  void dedup(std::size_t node, std::size_t idx);
  /// A vocabulary rule pruned one candidate; `rule` + `detail` justify it.
  void prune(std::size_t node, std::size_t idx, const std::string& rule,
             const std::string& detail);
  /// A vocabulary rule refuted a symbol outright (no expression can ever
  /// satisfy the constraint); the node — and with it the whole search —
  /// fails.
  void refute(std::size_t node, const std::string& symbol,
              const std::string& rule, const std::string& detail);
  void branch(std::size_t node, std::size_t idx);
  void leafOk(std::size_t node);
  void leafBad(std::size_t node, const std::string& conjunct);
  void backtrack(std::size_t node);
  void exhausted(std::size_t node);
  /// Step budget hit: the trail is truncated and proves nothing.
  void budget(std::size_t node);

  // ---- verdict ----
  void solution(const std::vector<std::string>& order,
                const std::map<std::string, dpl::ExprPtr>& assignments);
  void infeasible(const std::string& detail);

  // ---- plan cross-validation section ----
  void planStmt(const std::string& name, const dpl::ExprPtr& expr);
  /// One runtime partition expectation (mirrors region/verify fields);
  /// rendered as key=value tokens. Empty string / zero fields mean "not
  /// constrained".
  void expectation(const std::string& line);

  [[nodiscard]] std::size_t events() const { return events_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// Terminates the certificate and returns its full text.
  [[nodiscard]] std::string finish();

 private:
  void line(const std::string& s);

  std::ostringstream os_;
  std::size_t events_ = 0;
  std::size_t bytes_ = 0;
  bool finished_ = false;
};

}  // namespace dpart::constraint
