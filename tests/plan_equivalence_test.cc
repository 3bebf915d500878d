/// Property tests for the compile-once plan layer (fo/plan.h): under every
/// gate combination — compiled plans with and without persistent indexes —
/// the algebra evaluator must be observationally identical to the naive
/// reference, on random formulas and on full engine request sequences. Also
/// pins the compile-once contract itself: after warmup the plan cache serves
/// every call (hit rate ~1.0) and the hot Apply path runs zero planner
/// invocations, and plans/indexes stay consistent across Snapshot/Restore
/// and ReloadProgram.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dynfo/engine.h"
#include "dynfo/workload.h"
#include "fo/eval_algebra.h"
#include "fo/eval_naive.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "test_util.h"

namespace dynfo {
namespace {

/// The ablation axis: use_indexes. Formulas always run as compiled plans,
/// so two combos cover the space (the ladder's kCompiledIndexed and
/// kCompiled rungs).
struct GateCombo {
  const char* name;
  bool use_indexes;
};

constexpr GateCombo kGateCombos[] = {
    {"compiled+indexed", true},
    {"compiled", false},
};

fo::EvalOptions GatedOptions(const GateCombo& combo) {
  fo::EvalOptions options;
  options.use_indexes = combo.use_indexes;
  return options;
}

TEST(PlanEquivalence, RandomFormulasMatchNaiveUnderAllGateCombos) {
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  vocab->AddRelation("T", 3);
  relational::Structure structure(vocab, 5);
  core::Rng rng(4242);
  const std::vector<std::string> variables = {"x", "y"};

  for (int trial = 0; trial < 80; ++trial) {
    testing::RandomizeStructure(&structure, &rng, 0.3);
    int fresh = 0;
    fo::FormulaPtr formula =
        testing::RandomFormula(&rng, *vocab, variables, structure.universe_size(),
                               /*depth=*/3, &fresh);
    fo::EvalContext naive_ctx(structure);
    relational::Relation reference =
        fo::NaiveEvaluator::EvaluateAsRelation(formula, variables, naive_ctx);
    for (const GateCombo& combo : kGateCombos) {
      fo::EvalContext ctx(structure, {}, GatedOptions(combo));
      fo::AlgebraEvaluator evaluator;
      relational::Relation result =
          evaluator.EvaluateAsRelation(formula, variables, ctx);
      ASSERT_EQ(result, reference)
          << combo.name << " trial " << trial << " formula " << formula->ToString();
    }
  }
}

TEST(PlanEquivalence, CachedPlanSurvivesStructureChurn) {
  // One evaluator, one formula, many structures: the plan compiles once and
  // replays correctly as the underlying data changes (plans depend on the
  // vocabulary, never on relation contents).
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  relational::Structure structure(vocab, 6);
  core::Rng rng(77);
  const std::vector<std::string> variables = {"x", "y"};
  fo::AlgebraEvaluator evaluator;

  for (int round = 0; round < 10; ++round) {
    int fresh = 0;
    fo::FormulaPtr formula =
        testing::RandomFormula(&rng, *vocab, variables, structure.universe_size(),
                               /*depth=*/3, &fresh);
    evaluator.ResetStats();
    evaluator.ClearPlanCache();
    for (int churn = 0; churn < 6; ++churn) {
      testing::RandomizeStructure(&structure, &rng, 0.25);
      fo::EvalContext ctx(structure);  // compiled+indexed defaults
      relational::Relation expected = fo::NaiveEvaluator::EvaluateAsRelation(
          formula, variables, fo::EvalContext(structure));
      ASSERT_EQ(evaluator.EvaluateAsRelation(formula, variables, ctx), expected)
          << "round " << round << " churn " << churn;
    }
    const fo::EvalStats stats = evaluator.stats();
    // EvaluateAsRelation may wrap the formula per call, so only the raw
    // formula's subplans are shared; still, the top-level formula itself must
    // have compiled at most once per distinct Formula object cached.
    EXPECT_GT(stats.planner_runs, 0u);
  }
}

TEST(PlanEquivalence, ParameterizedPlanReplaysAcrossParameterValues) {
  // The paper's request-locality shape: atoms pin quantified variables to the
  // request parameters $0/$1. One plan, compiled once, must answer correctly
  // for every parameter binding (parameters resolve at execution time).
  using fo::Formula;
  using fo::Term;
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  relational::Structure structure(vocab, 6);
  core::Rng rng(99);
  testing::RandomizeStructure(&structure, &rng, 0.35);

  // phi(x) = exists q. E($0, q) & E(q, x) & !E(x, $1)
  fo::FormulaPtr phi = Formula::Exists(
      {"q"}, Formula::And({Formula::Atom("E", {Term::Param(0), Term::Var("q")}),
                           Formula::Atom("E", {Term::Var("q"), Term::Var("x")}),
                           Formula::Not(Formula::Atom(
                               "E", {Term::Var("x"), Term::Param(1)}))}));
  const std::vector<std::string> variables = {"x"};

  fo::AlgebraEvaluator evaluator;
  fo::EvalOptions compiled = GatedOptions(kGateCombos[0]);
  for (relational::Element a = 0; a < 6; ++a) {
    for (relational::Element b = 0; b < 6; ++b) {
      fo::EvalContext ctx(structure, {a, b}, compiled);
      relational::Relation expected = fo::NaiveEvaluator::EvaluateAsRelation(
          phi, variables, fo::EvalContext(structure, {a, b}));
      ASSERT_EQ(evaluator.EvaluateAsRelation(phi, variables, ctx), expected)
          << "params (" << a << ", " << b << ")";
    }
  }
}

TEST(PlanEquivalence, FullAndEmptyKeyAtomsMatchNaiveOnSharedBases) {
  // The access shapes that take no index (DESIGN.md §9): a key over every
  // position probes the tuple store, an empty key scans the relation. Each
  // runs on a copy-on-write copy whose base is shared and whose overlay is
  // not empty, so membership probes and scans take the overlay branch.
  using fo::Formula;
  using fo::Term;
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("PV", 3);
  vocab->AddRelation("E", 2);
  constexpr size_t kN = 5;
  relational::Structure original(vocab, kN);
  core::Rng rng(2024);
  testing::RandomizeStructure(&original, &rng, 0.4);
  relational::Structure structure = original;
  for (int round = 0; round < 12; ++round) {
    const auto a = static_cast<relational::Element>(rng.Below(kN));
    const auto b = static_cast<relational::Element>(rng.Below(kN));
    structure.relation("PV").Insert({a, b, a});
    structure.relation("PV").Erase({b, a, b});
    structure.relation("E").Insert({a, a});
    structure.relation("E").Erase({b, b});
  }
  for (const char* name : {"PV", "E"}) {
    ASSERT_TRUE(structure.relation(name).SharesStorageWith(original.relation(name)))
        << name;
    ASSERT_GT(structure.relation(name).OverlaySize(), 0u) << name;
  }

  const Term x = Term::Var("x");
  const Term u = Term::Var("u");
  const Term w = Term::Var("w");
  const Term y = Term::Var("y");
  const Term p0 = Term::Param(0);
  const Term p1 = Term::Param(1);
  struct Case {
    const char* shape;
    fo::FormulaPtr formula;
    std::vector<std::string> variables;
  };
  const std::vector<Case> cases = {
      // A fully ground atom scan: REACH_u's query P(s,t).
      {"ground PV($0,$1,$0)",
       Formula::Or({Formula::Eq(p0, p1), Formula::Atom("PV", {p0, p1, p0})}),
       {}},
      // A fully bound atom with a repeated variable once x and u are bound.
      {"bound PV(x,u,x)",
       Formula::And({Formula::Atom("E", {x, u}), Formula::Atom("PV", {x, u, x})}),
       {"x", "u"}},
      {"bound PV(x,$0,x)",
       Formula::And({Formula::Atom("E", {p0, x}), Formula::Atom("PV", {x, p0, x})}),
       {"x"}},
      // An unkeyed join step with a dup check, then a keyed one.
      {"unkeyed E(u,u)",
       Formula::And({Formula::Atom("E", {u, u}), Formula::Atom("PV", {u, w, u})}),
       {"u", "w"}},
      // An unkeyed union-extend branch with a dup check.
      {"unkeyed branch E(y,y)",
       Formula::And({Formula::Atom("PV", {p0, p1, x}),
                     Formula::Or({Formula::Atom("E", {y, y}),
                                  Formula::Atom("E", {x, y})})}),
       {"x", "y"}},
  };

  for (const Case& c : cases) {
    for (const GateCombo& combo : kGateCombos) {
      fo::AlgebraEvaluator evaluator;
      for (relational::Element a = 0; a < kN; ++a) {
        for (relational::Element b = 0; b < kN; ++b) {
          const relational::Relation expected =
              fo::NaiveEvaluator::EvaluateAsRelation(
                  c.formula, c.variables, fo::EvalContext(structure, {a, b}));
          fo::EvalContext ctx(structure, {a, b}, GatedOptions(combo));
          ASSERT_EQ(evaluator.EvaluateAsRelation(c.formula, c.variables, ctx),
                    expected)
              << c.shape << " under " << combo.name << " params (" << a << ", "
              << b << ")";
        }
      }
    }
  }
  // Only proper, non-empty keys were indexed along the way.
  for (const char* name : {"PV", "E"}) {
    const relational::Relation& relation = structure.relation(name);
    for (const std::vector<int>& key : relation.IndexKeys()) {
      EXPECT_FALSE(key.empty()) << name;
      EXPECT_LT(static_cast<int>(key.size()), relation.arity()) << name;
    }
  }
}

TEST(PlanEquivalence, PlanCacheWarmsUpToFullHitRate) {
  using fo::Formula;
  using fo::Term;
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  relational::Structure structure(vocab, 8);
  core::Rng rng(5);
  testing::RandomizeStructure(&structure, &rng, 0.3);

  // A sentence, so HoldsSentence evaluates exactly the formula we cache.
  fo::FormulaPtr sentence = Formula::Exists(
      {"x", "y"}, Formula::And({Formula::Atom("E", {Term::Var("x"), Term::Var("y")}),
                                Formula::Atom("E", {Term::Var("y"), Term::Var("x")})}));

  fo::AlgebraEvaluator evaluator;
  fo::EvalContext ctx(structure);
  const bool first = evaluator.HoldsSentence(sentence, ctx);
  const fo::EvalStats after_first = evaluator.stats();
  EXPECT_EQ(after_first.plan_cache_misses, 1u);
  EXPECT_EQ(after_first.planner_runs, 1u);
  EXPECT_EQ(evaluator.plan_cache_size(), 1u);

  constexpr int kRepeats = 50;
  for (int i = 0; i < kRepeats; ++i) {
    ASSERT_EQ(evaluator.HoldsSentence(sentence, ctx), first);
  }
  const fo::EvalStats warmed = evaluator.stats();
  // Compile-once: the planner never ran again, every later call hit.
  EXPECT_EQ(warmed.planner_runs, 1u);
  EXPECT_EQ(warmed.plan_cache_misses, 1u);
  EXPECT_EQ(warmed.plan_cache_hits, static_cast<uint64_t>(kRepeats));
  EXPECT_GT(warmed.PlanCacheHitRate(), 0.95);

  evaluator.ClearPlanCache();
  EXPECT_EQ(evaluator.plan_cache_size(), 0u);
  ASSERT_EQ(evaluator.HoldsSentence(sentence, ctx), first);
  EXPECT_EQ(evaluator.stats().planner_runs, 2u);  // recompiled after the clear
}

struct EngineCase {
  std::string name;
  std::shared_ptr<const dyn::DynProgram> program;
  relational::RequestSequence requests;
  size_t universe;
};

std::vector<EngineCase> EngineCases() {
  std::vector<EngineCase> out;
  {
    dyn::GraphWorkloadOptions options;
    options.num_requests = 120;
    options.seed = 303;
    options.undirected = true;
    options.set_fraction = 0.1;
    out.push_back({"reach_u", programs::MakeReachUProgram(),
                   dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", 8,
                                          options),
                   8});
  }
  {
    dyn::GenericWorkloadOptions options;
    options.num_requests = 120;
    options.seed = 17;
    options.set_fraction = 0;  // the parity input vocabulary has no constants
    out.push_back({"parity", programs::MakeParityProgram(),
                   dyn::MakeGenericWorkload(*programs::ParityInputVocabulary(), 10,
                                            options),
                   10});
  }
  return out;
}

void ExpectIndexesConsistent(const relational::Structure& data,
                             const std::string& label) {
  for (int r = 0; r < data.vocabulary().num_relations(); ++r) {
    core::Status status = data.relation(r).ValidateIndexes();
    ASSERT_TRUE(status.ok()) << label << " relation "
                             << data.vocabulary().relation(r).name << ": "
                             << status.message();
  }
}

TEST(PlanEquivalence, EngineSequencesIdenticalUnderAllGateCombos) {
  for (const EngineCase& test_case : EngineCases()) {
    dyn::EngineOptions naive_options;
    naive_options.eval_mode = dyn::EvalMode::kNaive;
    naive_options.use_delta = false;
    dyn::Engine naive(test_case.program, test_case.universe, naive_options);

    std::vector<std::unique_ptr<dyn::Engine>> engines;
    for (const GateCombo& combo : kGateCombos) {
      dyn::EngineOptions options;
      options.use_indexes = combo.use_indexes;
      engines.push_back(
          std::make_unique<dyn::Engine>(test_case.program, test_case.universe, options));
    }

    size_t step = 0;
    for (const relational::Request& request : test_case.requests) {
      naive.Apply(request);
      for (size_t i = 0; i < engines.size(); ++i) {
        engines[i]->Apply(request);
        ASSERT_EQ(naive.data(), engines[i]->data())
            << test_case.name << " " << kGateCombos[i].name << " diverged at step "
            << step << " after " << request.ToString();
      }
      ++step;
    }
    // Persistent indexes stayed consistent through the whole churn.
    ExpectIndexesConsistent(engines[0]->data(), test_case.name);
  }
}

TEST(PlanEquivalence, HotApplyPathRunsZeroPlannerInvocations) {
  for (const EngineCase& test_case : EngineCases()) {
    dyn::Engine engine(test_case.program, test_case.universe);  // defaults: compiled+indexed
    // Load-time precompilation already populated the cache.
    const fo::EvalStats at_load = engine.eval_stats();
    EXPECT_GT(at_load.planner_runs, 0u) << test_case.name;
    EXPECT_GT(engine.plan_cache_size(), 0u) << test_case.name;

    for (const relational::Request& request : test_case.requests) {
      engine.Apply(request);
    }
    engine.QueryBool();

    const fo::EvalStats after = engine.eval_stats();
    // The acceptance bar: zero per-update planner invocations and a warm
    // cache serving essentially every evaluation.
    EXPECT_EQ(after.planner_runs, at_load.planner_runs)
        << test_case.name << " planned during Apply";
    EXPECT_EQ(after.plan_cache_misses, at_load.plan_cache_misses) << test_case.name;
    EXPECT_GT(after.plan_cache_hits, 0u) << test_case.name;
    EXPECT_GT(after.PlanCacheHitRate(), 0.9) << test_case.name;
  }
}

TEST(PlanEquivalence, RestoreInvalidatesPlansAndKeepsEquivalence) {
  const EngineCase test_case = EngineCases()[0];  // reach_u
  dyn::EngineOptions naive_options;
  naive_options.eval_mode = dyn::EvalMode::kNaive;
  naive_options.use_delta = false;
  dyn::Engine naive(test_case.program, test_case.universe, naive_options);
  dyn::Engine engine(test_case.program, test_case.universe);

  const size_t half = test_case.requests.size() / 2;
  std::string snapshot;
  for (size_t i = 0; i < half; ++i) {
    naive.Apply(test_case.requests[i]);
    engine.Apply(test_case.requests[i]);
  }
  snapshot = engine.Snapshot();

  // Run the tail twice: once straight through, once after a Restore back to
  // the midpoint. Both must match the naive reference state-for-state.
  for (size_t i = half; i < test_case.requests.size(); ++i) {
    engine.Apply(test_case.requests[i]);
  }
  const relational::Structure final_state = engine.data();

  ASSERT_TRUE(engine.Restore(snapshot).ok());
  ExpectIndexesConsistent(engine.data(), "post-restore");
  const fo::EvalStats post_restore = engine.eval_stats();
  for (size_t i = half; i < test_case.requests.size(); ++i) {
    naive.Apply(test_case.requests[i]);
    engine.Apply(test_case.requests[i]);
    ASSERT_EQ(naive.data(), engine.data())
        << "diverged after restore at step " << i;
  }
  EXPECT_EQ(engine.data(), final_state);
  // The replayed tail still planned nothing: Restore recompiled eagerly.
  EXPECT_EQ(engine.eval_stats().planner_runs, post_restore.planner_runs);
}

TEST(PlanEquivalence, ReloadProgramRecompilesAndRejectsForeignVocabulary) {
  const EngineCase test_case = EngineCases()[0];  // reach_u
  dyn::Engine engine(test_case.program, test_case.universe);
  for (size_t i = 0; i < 40; ++i) engine.Apply(test_case.requests[i]);
  const bool answer_before = engine.QueryBool();

  // Reloading the same program object is the degenerate hot-swap: plans are
  // rebuilt, behavior is unchanged.
  ASSERT_TRUE(engine.ReloadProgram(engine.program_ptr()).ok());
  EXPECT_GT(engine.plan_cache_size(), 0u);
  EXPECT_EQ(engine.QueryBool(), answer_before);
  for (size_t i = 40; i < 80; ++i) engine.Apply(test_case.requests[i]);

  dyn::Engine twin(test_case.program, test_case.universe);
  for (size_t i = 0; i < 80; ++i) twin.Apply(test_case.requests[i]);
  EXPECT_EQ(engine.data(), twin.data());

  // A program built over different vocabulary objects must be rejected: its
  // formulas would compile against relation indexes that do not match data_.
  auto foreign = programs::MakeReachUProgram();
  ASSERT_NE(foreign.get(), test_case.program.get());
  EXPECT_FALSE(engine.ReloadProgram(foreign).ok());
  // The rejection left the engine fully operational.
  engine.Apply(test_case.requests[80]);
  twin.Apply(test_case.requests[80]);
  EXPECT_EQ(engine.data(), twin.data());
}

}  // namespace
}  // namespace dynfo
