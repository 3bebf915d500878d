#include "fo/eval_algebra.h"

#include <algorithm>
#include <limits>

#include "core/cancel.h"
#include "fo/eval_naive.h"

namespace dynfo::fo {

namespace {

bool IsQuantifierFree(const Formula& f) {
  if (f.kind() == FormulaKind::kExists || f.kind() == FormulaKind::kForall) return false;
  for (const FormulaPtr& child : f.children()) {
    if (!IsQuantifierFree(*child)) return false;
  }
  return true;
}

bool Subset(const std::vector<std::string>& small, const std::vector<std::string>& big) {
  for (const std::string& s : small) {
    if (std::find(big.begin(), big.end(), s) == big.end()) return false;
  }
  return true;
}

std::vector<std::string> SetMinus(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& s : a) {
    if (std::find(b.begin(), b.end(), s) == b.end()) out.push_back(s);
  }
  return out;
}

Env EnvFromRow(const std::vector<std::string>& columns, const Row& row) {
  Env env;
  for (size_t i = 0; i < columns.size(); ++i) env.Push(columns[i], row[i]);
  return env;
}

/// Strided governor poll for sequential loops (see plan_exec.cc twin).
bool StridedStop(const EvalContext& ctx, size_t* counter) {
  if (ctx.governor == nullptr) return false;
  return ((*counter)++ % core::kGovernorStride) == 0 && ctx.ShouldStop();
}

}  // namespace

NamedRelation AlgebraEvaluator::Sat(const FormulaPtr& formula,
                                    const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  if (ctx.options.use_compiled_plans) {
    return ExecutePlan(*PlanFor(formula, ctx), ctx, &stats_);
  }
  return SatClassic(formula, ctx);
}

PlanPtr AlgebraEvaluator::PlanFor(const FormulaPtr& formula,
                                  const EvalContext& ctx) const {
  const relational::Vocabulary* vocabulary = &ctx.structure->vocabulary();
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    auto it = plan_cache_.find(formula.get());
    if (it != plan_cache_.end() && it->second.vocabulary == vocabulary) {
      ++stats_.plan_cache_hits;
      return it->second.plan;
    }
  }
  ++stats_.plan_cache_misses;
  ++stats_.planner_runs;
  PlanPtr plan = PlanCompiler(*vocabulary).Compile(formula);
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (plan_cache_.size() >= kMaxCachedPlans) plan_cache_.clear();
    plan_cache_[formula.get()] = {formula, vocabulary, plan};
  }
  return plan;
}

PlanPtr AlgebraEvaluator::Precompile(const FormulaPtr& formula,
                                     const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  return PlanFor(formula, ctx);
}

DeltaProgram AlgebraEvaluator::CompileDeltaRemovals(
    const FormulaPtr& not_keep, const std::vector<std::string>& tuple_variables,
    int base_relation_index, int base_arity, const EvalContext& ctx) const {
  if (not_keep != nullptr) ++stats_.planner_runs;
  return fo::CompileDeltaRemovals(PlanCompiler(ctx.structure->vocabulary()),
                                  not_keep, tuple_variables,
                                  base_relation_index, base_arity);
}

std::vector<relational::Tuple> AlgebraEvaluator::DeltaRemovals(
    const DeltaProgram& program, const EvalContext& ctx) const {
  return ExecuteDeltaRemovals(program, ctx, &stats_);
}

void AlgebraEvaluator::ClearPlanCache() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  plan_cache_.clear();
}

size_t AlgebraEvaluator::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_cache_.size();
}

NamedRelation AlgebraEvaluator::SatClassic(const FormulaPtr& formula,
                                           const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  // Entry poll: a tripped governor prunes whole subtrees before they start.
  if (ctx.ShouldStop()) return NamedRelation(formula->FreeVariables());
  switch (formula->kind()) {
    case FormulaKind::kTrue:
      return NamedRelation::Unit();
    case FormulaKind::kFalse:
      return NamedRelation({});
    case FormulaKind::kAtom:
      return SatAtom(*formula, ctx);
    case FormulaKind::kEq:
    case FormulaKind::kLe:
    case FormulaKind::kBit:
      return SatNumeric(*formula, ctx);
    case FormulaKind::kNot:
      return SatNot(*formula, ctx);
    case FormulaKind::kAnd:
      return SatAnd(*formula, ctx);
    case FormulaKind::kOr:
      return SatOr(*formula, ctx);
    case FormulaKind::kExists:
      return SatExists(*formula, ctx);
    case FormulaKind::kForall:
      return SatForall(*formula, ctx);
  }
  DYNFO_UNREACHABLE();
}

NamedRelation AlgebraEvaluator::SatAtom(const Formula& formula,
                                        const EvalContext& ctx) const {
  const relational::Relation& rel = ctx.structure->relation(formula.relation());
  const std::vector<Term>& args = formula.args();
  DYNFO_CHECK(static_cast<int>(args.size()) == rel.arity())
      << "atom arity mismatch for " << formula.relation();

  // Positions: ground value, or index into the output columns.
  struct Position {
    bool ground;
    relational::Element value;  // if ground
    int column;                 // if variable
  };
  std::vector<std::string> columns;
  std::vector<Position> positions;
  positions.reserve(args.size());
  for (const Term& t : args) {
    std::optional<relational::Element> ground = GroundTerm(t, ctx);
    if (ground.has_value()) {
      positions.push_back({true, *ground, -1});
      continue;
    }
    int column = -1;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == t.name()) column = static_cast<int>(i);
    }
    if (column < 0) {
      column = static_cast<int>(columns.size());
      columns.push_back(t.name());
    }
    positions.push_back({false, 0, column});
  }

  NamedRelation out(columns);
  Row row(columns.size(), 0);
  size_t polls = 0;
  for (const relational::Tuple& t : rel) {
    if (StridedStop(ctx, &polls)) break;
    bool match = true;
    // First pass: ground checks and variable binding; repeated variables must
    // agree, which we check with a second pass once all are bound.
    std::fill(row.begin(), row.end(), 0);
    std::vector<bool> bound(columns.size(), false);
    for (int i = 0; i < t.size() && match; ++i) {
      const Position& p = positions[i];
      if (p.ground) {
        match = t[i] == p.value;
      } else if (!bound[p.column]) {
        row[p.column] = t[i];
        bound[p.column] = true;
      } else {
        match = row[p.column] == t[i];
      }
    }
    if (match) out.AddRow(row);
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation AlgebraEvaluator::SatNumeric(const Formula& formula,
                                           const EvalContext& ctx) const {
  const size_t n = ctx.universe_size();
  const Term& lhs = formula.left();
  const Term& rhs = formula.right();
  std::optional<relational::Element> lg = GroundTerm(lhs, ctx);
  std::optional<relational::Element> rg = GroundTerm(rhs, ctx);

  auto holds = [&](relational::Element a, relational::Element b) {
    switch (formula.kind()) {
      case FormulaKind::kEq:
        return a == b;
      case FormulaKind::kLe:
        return a <= b;
      case FormulaKind::kBit:
        return b < 32 && ((a >> b) & 1u) != 0;
      default:
        DYNFO_UNREACHABLE();
    }
  };

  if (lg && rg) {
    return holds(*lg, *rg) ? NamedRelation::Unit() : NamedRelation({});
  }
  if (lg || rg) {
    // Exactly one variable: enumerate its n candidate values.
    const std::string& var = lg ? rhs.name() : lhs.name();
    NamedRelation out({var});
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      bool ok = lg ? holds(*lg, e) : holds(e, *rg);
      if (ok) out.AddRow({e});
    }
    return out;
  }
  // Two variables.
  if (lhs.name() == rhs.name()) {
    // Reflexive case, e.g. x = x or BIT(x, x).
    NamedRelation out({lhs.name()});
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      if (holds(e, e)) out.AddRow({e});
    }
    return out;
  }
  if (formula.kind() == FormulaKind::kEq) {
    // Diagonal: n rows, not n^2.
    NamedRelation out({lhs.name(), rhs.name()});
    for (size_t v = 0; v < n; ++v) {
      relational::Element e = static_cast<relational::Element>(v);
      out.AddRow({e, e});
    }
    return out;
  }
  NamedRelation out({lhs.name(), rhs.name()});
  size_t polls = 0;
  for (size_t a = 0; a < n; ++a) {
    if (StridedStop(ctx, &polls)) break;
    for (size_t b = 0; b < n; ++b) {
      if (holds(static_cast<relational::Element>(a), static_cast<relational::Element>(b))) {
        out.AddRow({static_cast<relational::Element>(a),
                    static_cast<relational::Element>(b)});
      }
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation AlgebraEvaluator::SatNot(const Formula& formula,
                                       const EvalContext& ctx) const {
  const FormulaPtr& inner = formula.children()[0];
  NamedRelation sat = SatClassic(inner, ctx);
  ++stats_.complements;
  return sat.ComplementWithin(ctx.universe_size(), ctx.governor);
}

NamedRelation AlgebraEvaluator::FilterRows(const NamedRelation& acc,
                                           const FormulaPtr& conjunct,
                                           const EvalContext& ctx) const {
  NamedRelation out(acc.columns());
  stats_.filter_row_evals.fetch_add(acc.size(), std::memory_order_relaxed);

  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (StridedStop(ctx, &polls)) break;
    Env env = EnvFromRow(acc.columns(), row);
    if (NaiveEvaluator::Holds(*conjunct, ctx, &env)) out.AddRow(row);
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation AlgebraEvaluator::ExtendByEquality(const NamedRelation& acc,
                                                 const std::string& var,
                                                 const Term& term,
                                                 const EvalContext& ctx) const {
  ++stats_.equality_extensions;
  std::vector<std::string> columns = acc.columns();
  columns.push_back(var);
  NamedRelation out(columns);
  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (StridedStop(ctx, &polls)) break;
    Env env = EnvFromRow(acc.columns(), row);
    relational::Element value = EvalTerm(term, ctx, env);
    Row extended = row;
    extended.push_back(value);
    out.AddRow(std::move(extended));
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation AlgebraEvaluator::ExtendByFilter(const NamedRelation& acc,
                                               const std::string& var,
                                               const FormulaPtr& conjunct,
                                               const EvalContext& ctx) const {
  ++stats_.filtered_extensions;
  const size_t n = ctx.universe_size();
  std::vector<std::string> columns = acc.columns();
  columns.push_back(var);
  NamedRelation out(columns);
  stats_.filter_row_evals.fetch_add(acc.size() * n, std::memory_order_relaxed);

  size_t polls = 0;
  for (const Row& row : acc.rows()) {
    if (StridedStop(ctx, &polls)) break;
    Env env = EnvFromRow(acc.columns(), row);
    env.Push(var, 0);
    for (size_t v = 0; v < n; ++v) {
      env.Set(static_cast<relational::Element>(v));
      if (NaiveEvaluator::Holds(*conjunct, ctx, &env)) {
        Row extended = row;
        extended.push_back(static_cast<relational::Element>(v));
        out.AddRow(std::move(extended));
      }
    }
  }
  ctx.Charge(out.size(), out.width());
  return out;
}

NamedRelation AlgebraEvaluator::SatAnd(const Formula& formula,
                                       const EvalContext& ctx) const {
  const std::vector<std::string> target_columns = formula.FreeVariables();
  std::vector<FormulaPtr> pending = formula.children();
  // Cache each conjunct's free variables.
  std::vector<std::vector<std::string>> free;
  free.reserve(pending.size());
  for (const FormulaPtr& c : pending) free.push_back(c->FreeVariables());

  NamedRelation acc = NamedRelation::Unit();

  auto erase_at = [&](size_t i) {
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
    free.erase(free.begin() + static_cast<ptrdiff_t>(i));
  };

  while (!pending.empty()) {
    // One governor poll per planner iteration: a trip aborts the whole
    // conjunction with a partial (discarded) result.
    if (ctx.ShouldStop()) return NamedRelation(target_columns);
    // Phase 1: conjuncts whose variables are all bound act as filters.
    bool progressed = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!Subset(free[i], acc.columns())) continue;
      const FormulaPtr& c = pending[i];
      if (IsQuantifierFree(*c) || c->kind() == FormulaKind::kForall) {
        // Universally quantified filters are evaluated per row: their Sat
        // requires padding the body's disjuncts to the full variable cross
        // product (n^k rows), which dwarfs |acc| * n^q naive evaluation.
        acc = FilterRows(acc, c, ctx);
      } else if (c->kind() == FormulaKind::kNot) {
        ++stats_.semi_joins;
        acc = acc.SemiJoin(SatClassic(c->children()[0], ctx), /*anti=*/true,
                           ctx.governor);
        ctx.Charge(acc.size(), acc.width());
      } else {
        ++stats_.semi_joins;
        acc = acc.SemiJoin(SatClassic(c, ctx), /*anti=*/false, ctx.governor);
        ctx.Charge(acc.size(), acc.width());
      }
      erase_at(i);
      progressed = true;
      break;
    }
    if (progressed) continue;
    if (acc.empty()) break;  // nothing downstream can add rows

    // Phase 2: choose the cheapest generator for some unbound variable(s).
    constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
    enum class Choice { kNone, kEqExtend, kAtomJoin, kFilterExtend, kSatJoin };
    Choice best_plan = Choice::kNone;
    size_t best_index = 0;
    uint64_t best_cost = kInf;
    const uint64_t n = ctx.universe_size();

    for (size_t i = 0; i < pending.size(); ++i) {
      const FormulaPtr& c = pending[i];
      std::vector<std::string> unbound = SetMinus(free[i], acc.columns());
      uint64_t cost = kInf;
      Choice plan = Choice::kNone;
      if (c->kind() == FormulaKind::kEq && unbound.size() == 1) {
        // x = t with t computable per row: constant-cost extension.
        const Term& l = c->left();
        const Term& r = c->right();
        bool left_is_unbound = l.is_variable() && l.name() == unbound[0];
        const Term& other = left_is_unbound ? r : l;
        if (!other.is_variable() || other.name() != unbound[0]) {
          plan = Choice::kEqExtend;
          cost = acc.size() + 1;
        }
      }
      if (plan == Choice::kNone && c->kind() == FormulaKind::kAtom) {
        plan = Choice::kAtomJoin;
        cost = ctx.structure->relation(c->relation()).size() + acc.size();
      }
      if (plan == Choice::kNone && unbound.size() == 1 && IsQuantifierFree(*c)) {
        plan = Choice::kFilterExtend;
        cost = acc.size() * n;
      }
      if (plan == Choice::kNone) {
        plan = Choice::kSatJoin;
        cost = kInf - 1;  // last resort, but always applicable
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_plan = plan;
        best_index = i;
      }
    }

    DYNFO_CHECK(best_plan != Choice::kNone);
    const FormulaPtr c = pending[best_index];
    std::vector<std::string> unbound = SetMinus(free[best_index], acc.columns());
    switch (best_plan) {
      case Choice::kEqExtend: {
        const Term& l = c->left();
        const Term& r = c->right();
        bool left_is_unbound = l.is_variable() && l.name() == unbound[0];
        acc = ExtendByEquality(acc, unbound[0], left_is_unbound ? r : l, ctx);
        break;
      }
      case Choice::kAtomJoin:
        ++stats_.joins;
        acc = acc.Join(SatAtom(*c, ctx), ctx.governor);
        ctx.Charge(acc.size(), acc.width());
        break;
      case Choice::kFilterExtend:
        acc = ExtendByFilter(acc, unbound[0], c, ctx);
        break;
      case Choice::kSatJoin:
        ++stats_.joins;
        acc = acc.Join(SatClassic(c, ctx), ctx.governor);
        ctx.Charge(acc.size(), acc.width());
        break;
      case Choice::kNone:
        DYNFO_UNREACHABLE();
    }
    erase_at(best_index);
  }

  if (acc.empty()) return NamedRelation(target_columns);
  // Invariant: processing every conjunct binds every free variable.
  DYNFO_CHECK(acc.columns().size() == target_columns.size());
  return acc;
}

NamedRelation AlgebraEvaluator::SatOr(const Formula& formula,
                                      const EvalContext& ctx) const {
  const std::vector<std::string> target_columns = formula.FreeVariables();
  NamedRelation out(target_columns);
  const size_t n = ctx.universe_size();
  for (const FormulaPtr& child : formula.children()) {
    if (ctx.ShouldStop()) break;
    NamedRelation sat = SatClassic(child, ctx);
    std::vector<std::string> missing = SetMinus(target_columns, sat.columns());
    if (!missing.empty()) {
      ++stats_.pads;
      sat = sat.PadWithUniverse(missing, n, ctx.governor);
    }
    out = out.Union(sat);
    ctx.Charge(out.size(), out.width());
  }
  return out;
}

NamedRelation AlgebraEvaluator::SatExists(const Formula& formula,
                                          const EvalContext& ctx) const {
  NamedRelation sat = SatClassic(formula.children()[0], ctx);
  std::vector<std::string> keep = SetMinus(sat.columns(), formula.variables());
  return sat.Project(keep);
}

NamedRelation AlgebraEvaluator::SatForall(const Formula& formula,
                                          const EvalContext& ctx) const {
  const FormulaPtr& body = formula.children()[0];
  NamedRelation sat = SatClassic(body, ctx);
  // Quantified variables actually occurring free in the body.
  std::vector<std::string> quantified;
  for (const std::string& v : formula.variables()) {
    if (sat.HasColumn(v)) quantified.push_back(v);
  }
  if (quantified.empty()) return sat;  // forall over absent variables is a no-op

  const size_t n = ctx.universe_size();
  uint64_t required = 1;
  for (size_t i = 0; i < quantified.size(); ++i) {
    DYNFO_CHECK(required <= std::numeric_limits<uint64_t>::max() / n)
        << "forall group size overflow";
    required *= n;
  }

  std::vector<std::string> keep = SetMinus(sat.columns(), quantified);
  // Count, for each assignment of the kept variables, how many assignments of
  // the quantified variables satisfy the body; keep those hitting n^k.
  std::vector<int> keep_positions;
  keep_positions.reserve(keep.size());
  for (const std::string& name : keep) keep_positions.push_back(sat.ColumnIndex(name));

  std::unordered_map<Row, uint64_t, RowHash> counts;
  size_t polls = 0;
  for (const Row& row : sat.rows()) {
    if (StridedStop(ctx, &polls)) break;
    Row key;
    key.reserve(keep_positions.size());
    for (int p : keep_positions) key.push_back(row[p]);
    ++counts[key];
  }
  ctx.Charge(counts.size(), keep_positions.size());
  NamedRelation out(keep);
  for (const auto& [key, count] : counts) {
    if (count == required) out.AddRow(key);
  }
  return out;
}

bool AlgebraEvaluator::HoldsSentence(const FormulaPtr& formula,
                                     const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  DYNFO_CHECK(formula->FreeVariables().empty())
      << "sentence expected: " << formula->ToString();
  return !Sat(formula, ctx).empty();
}

relational::Relation AlgebraEvaluator::EvaluateAsRelation(
    const FormulaPtr& formula, const std::vector<std::string>& tuple_variables,
    const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  std::vector<std::string> free = formula->FreeVariables();
  DYNFO_CHECK(Subset(free, tuple_variables))
      << "free variables not among the tuple variables: " << formula->ToString();
  const int arity = static_cast<int>(tuple_variables.size());
  DYNFO_CHECK(arity <= relational::Tuple::kMaxArity);

  NamedRelation sat = Sat(formula, ctx);
  std::vector<std::string> missing = SetMinus(tuple_variables, sat.columns());
  if (!missing.empty()) {
    ++stats_.pads;
    sat = sat.PadWithUniverse(missing, ctx.universe_size(), ctx.governor);
  }
  sat = sat.Reorder(tuple_variables);

  relational::Relation out(arity);
  size_t polls = 0;
  for (const Row& row : sat.rows()) {
    if (StridedStop(ctx, &polls)) break;
    relational::Tuple t;
    for (relational::Element e : row) t = t.Append(e);
    out.Insert(t);
  }
  ctx.Charge(out.size(), static_cast<size_t>(arity));
  return out;
}

}  // namespace dynfo::fo
