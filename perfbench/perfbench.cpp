//===- perfbench/perfbench.cpp - Time to a verified program ------------------===//
//
// The repository benchmark program. One process runs one workload: a fixed
// list of Table 1 inputs, synthesized one after another as a closed loop with
// a single client (synthesize input i, then input i+1), repeated in passes
// until the requested measuring time has elapsed. See perfbench/README.md for
// the workloads, the metric -> layer -> workload map, and the noise sources
// the design avoids.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with all instrumentation off.
// --trace 1 runs three untraced reference passes, then a traced pass that
// times each layer's public entry point from here (no spans inside src/),
// and reports per-layer metrics.
//
// Every synthesized program is checked against the source program on seeded
// random invocation sequences run through runSequence (not the tester's
// search); a program with one update body emptied must fail that check.
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark's result line.
//
//===----------------------------------------------------------------------===//

#include "ast/Analysis.h"
#include "benchsuite/Benchmark.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "parse/Parser.h"
#include "relational/ResultTable.h"
#include "sketch/SketchGen.h"
#include "support/Rng.h"
#include "synth/RandomWorkload.h"
#include "synth/Synthesizer.h"
#include "vc/VcEnumerator.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

using namespace migrator;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Process user+sys CPU seconds so far.
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double minOf(const std::vector<double> &V) {
  return *std::min_element(V.begin(), V.end());
}

/// FNV-1a over the program text: the identity the determinism checks use.
std::string programHash(const Program &P) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : P.str()) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct InputSpec {
  const char *Name;
  /// Per-input synthesis budget: about three times the measured time, so a
  /// regression shows up as a failed input rather than a hung run.
  double BudgetSec;
};

struct WorkloadSpec {
  const char *Name;
  std::vector<InputSpec> Inputs;
  unsigned Jobs;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec> &workloads() {
  static const std::vector<WorkloadSpec> W = {
      {"verify-heavy",
       {{"probable-engine", 20}, {"Oracle-2", 20}},
       1},
      {"search-heavy",
       {{"MathHotSpot", 20}, {"Ambler-3", 20}, {"Ambler-6", 20}},
       1},
      {"parallel-j2",
       {{"MathHotSpot", 20}, {"Ambler-3", 20}, {"Ambler-6", 20}},
       2},
  };
  return W;
}

SynthOptions synthOptions(const WorkloadSpec &W, double BudgetSec) {
  SynthOptions O;
  O.Jobs = W.Jobs;
  O.Deterministic = W.Jobs > 1;
  O.TimeBudgetSec = BudgetSec;
  return O;
}

/// One workload input: the rendered `.dbp` text (what migrate_tool reads)
/// and the declarations parsed from it.
struct Input {
  std::string Name;
  double BudgetSec = 0;
  std::string Text;
  ParseOutput Unit;
  const Schema *Src = nullptr;
  const Schema *Tgt = nullptr;
  const Program *Prog = nullptr;
};

/// Renders benchmark \p Name the way examples/dump_benchmarks does.
std::string renderDbp(const std::string &Name) {
  Benchmark B = loadBenchmark(Name);
  return B.Source.str() + "\n" + B.Target.str() + "\nprogram App on " +
         B.Source.getName() + " {\n" + B.Prog.str() + "}\n";
}

/// Parses every input's text once and returns the seconds it took, or a
/// negative value (with \p Err set) on a parse failure. With \p Keep set,
/// the declarations are stored into the inputs.
double parseAll(std::vector<Input> &Ins, bool Keep, std::string &Err) {
  Clock::time_point T = Clock::now();
  std::vector<std::variant<ParseOutput, ParseError>> Parsed;
  Parsed.reserve(Ins.size());
  for (const Input &In : Ins)
    Parsed.push_back(parseUnit(In.Text));
  double Sec = secondsSince(T);
  for (size_t I = 0; I < Ins.size(); ++I) {
    if (auto *E = std::get_if<ParseError>(&Parsed[I])) {
      Err = Ins[I].Name + ": " + E->str();
      return -1;
    }
    if (Keep)
      Ins[I].Unit = std::move(std::get<ParseOutput>(Parsed[I]));
  }
  return Sec;
}

bool bindInput(Input &In, std::string &Err) {
  const NamedProgram *P = In.Unit.findProgram("App");
  if (!P || In.Unit.Schemas.size() != 2) {
    Err = In.Name + ": expected program App and two schemas";
    return false;
  }
  In.Src = In.Unit.findSchema(P->SchemaName);
  In.Tgt = &In.Unit.Schemas[In.Src == &In.Unit.Schemas[0] ? 1 : 0];
  In.Prog = &P->Prog;
  return In.Src != nullptr;
}

//===----------------------------------------------------------------------===//
// Output check
//===----------------------------------------------------------------------===//

/// Random sequences go past the verifier's depth 4 (up to five updates plus
/// the query) and draw constants from domains wider than the tester's seeds.
RandomWorkloadOptions checkSequenceOptions() {
  RandomWorkloadOptions O;
  O.MaxUpdates = 5;
  O.IntDomain = 3;
  O.StrDomain = 3;
  return O;
}

constexpr unsigned CheckSequences = 2000;

/// For each query of \p P, the sub-program of that query plus the updates
/// that write a table it reads. On a program with dozens of functions a
/// uniformly drawn prefix rarely touches what the drawn query reads, so half
/// of the check's sequences are drawn from these instead.
std::vector<Program> queryDirectedPrograms(const Program &P) {
  std::vector<Program> Out;
  for (const Function &Q : P.getFunctions()) {
    if (!Q.isQuery())
      continue;
    std::set<std::string> Reads = collectReadWriteSets(Q).Reads;
    Program Sub;
    for (const Function &U : P.getFunctions()) {
      if (!U.isUpdate())
        continue;
      for (const std::string &T : collectReadWriteSets(U).Writes)
        if (Reads.count(T)) {
          Sub.addFunction(U.clone());
          break;
        }
    }
    Sub.addFunction(Q.clone());
    Out.push_back(std::move(Sub));
  }
  return Out;
}

struct CheckResult {
  uint64_t Seqs = 0;
  uint64_t Bad = 0; ///< Mismatched or ill-formed sequences.
  std::string FirstBad;
};

/// Runs \p N seeded random sequences on the source and on \p Cand and
/// compares the final query results. Stops at the first bad sequence when
/// \p StopEarly is set.
CheckResult outputCheck(const Input &In, const Program &Cand, uint64_t Seed,
                        unsigned N, bool StopEarly) {
  CheckResult C;
  Rng R(Seed);
  RandomWorkloadOptions Opts = checkSequenceOptions();
  std::vector<Program> Directed = queryDirectedPrograms(*In.Prog);
  for (unsigned I = 0; I < N; ++I) {
    const Program &From = I % 2 ? Directed[R.next(Directed.size())] : *In.Prog;
    InvocationSeq Seq = randomSequence(From, R, Opts);
    std::optional<ResultTable> A = runSequence(*In.Prog, *In.Src, Seq);
    std::optional<ResultTable> B = runSequence(Cand, *In.Tgt, Seq);
    ++C.Seqs;
    if (!A || !B || !resultsEquivalent(*A, *B)) {
      if (!C.Bad++)
        C.FirstBad = sequenceStr(Seq);
      if (StopEarly)
        break;
    }
  }
  return C;
}

/// \p P (over schema \p S) with the body of its first update function
/// emptied. The language has no empty body, so the body becomes the no-op
/// `del([T], T, T.a != T.a)` on the schema's first table.
std::optional<Program> emptyFirstUpdate(const Program &P, const Schema &S) {
  if (S.getTables().empty() || S.getTables()[0].getAttrs().empty())
    return std::nullopt;
  const TableSchema &T = S.getTables()[0];
  AttrRef A(T.getName(), T.getAttrs()[0].Name);
  Program Out;
  bool Done = false;
  for (const Function &F : P.getFunctions()) {
    if (!Done && F.isUpdate()) {
      std::vector<StmtPtr> Body;
      Body.push_back(std::make_unique<DeleteStmt>(
          std::vector<std::string>{T.getName()}, JoinChain::table(T.getName()),
          std::make_unique<CmpPred>(A, CmpOp::Ne, A)));
      Out.addFunction(
          Function::makeUpdate(F.getName(), F.getParams(), std::move(Body)));
      Done = true;
    } else {
      Out.addFunction(F.clone());
    }
  }
  if (!Done)
    return std::nullopt;
  return Out;
}

uint64_t checkSeed(uint64_t Seed, const std::string &Name) {
  uint64_t H = Seed * 0x9e3779b97f4a7c15ULL;
  for (unsigned char C : Name)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

//===----------------------------------------------------------------------===//
// Untraced and traced passes
//===----------------------------------------------------------------------===//

/// What one input's synthesis produced; the exact counts the benchmark
/// requires to repeat across runs.
struct InputRun {
  std::optional<Program> Prog;
  bool TimedOut = false;
  double WallSec = 0;
  double CpuSec = 0;
  uint64_t Iters = 0;
  uint64_t Vcs = 0;
  uint64_t SatCalls = 0;
  std::string Hash;
  /// Traced pass only: sequences the winner's test and verify replays ran.
  uint64_t TesterSeqs = 0;
  uint64_t VerifySeqs = 0;
};

InputRun runSynthesize(const Input &In, const SynthOptions &Opts,
                       SynthResult *Out = nullptr) {
  Clock::time_point T = Clock::now();
  double Cpu0 = cpuSeconds();
  SynthResult R = synthesize(*In.Src, *In.Prog, *In.Tgt, Opts);
  InputRun Run;
  Run.WallSec = secondsSince(T);
  Run.CpuSec = cpuSeconds() - Cpu0;
  Run.TimedOut = R.Stats.TimedOut;
  Run.Iters = R.Stats.Iters;
  Run.Vcs = R.Stats.NumVcs;
  Run.SatCalls = R.Stats.Solve.SatCalls;
  if (R.Prog)
    Run.Hash = programHash(*R.Prog);
  Run.Prog = std::move(R.Prog);
  if (Out)
    *Out = std::move(R);
  return Run;
}

/// Per-layer totals of the traced pass, summed over inputs.
struct Layers {
  double ParseS = 0, VcS = 0, SketchS = 0, SolveS = 0, TesterS = 0,
         VerifyS = 0, EvalS = 0, SynthWallS = 0, WallS = 0, SynthCpuS = 0;
  uint64_t VcCalls = 0, SketchCalls = 0, Holes = 0, TesterSeqs = 0,
           VerifySeqs = 0, EvalSeqs = 0;
  SolveStats Solve;
  obs::MetricsSnapshot Metrics;
};

uint64_t counter(const obs::MetricsSnapshot &M, const char *Name) {
  auto It = M.Counters.find(Name);
  return It == M.Counters.end() ? 0 : It->second;
}

double histSumSec(const obs::MetricsSnapshot &M, const char *Name) {
  auto It = M.Histograms.find(Name);
  return It == M.Histograms.end() ? 0 : It->second.Sum / 1e6;
}

void addMetrics(obs::MetricsSnapshot &Acc, const obs::MetricsSnapshot &D) {
  for (const auto &[K, V] : D.Counters)
    Acc.Counters[K] += V;
  for (const auto &[K, H] : D.Histograms) {
    obs::HistogramSnapshot &A = Acc.Histograms[K];
    A.Count += H.Count;
    A.Sum += H.Sum;
  }
}

template <typename F> auto timed(double &Acc, F &&Fn) {
  Clock::time_point T = Clock::now();
  auto R = Fn();
  Acc += secondsSince(T);
  return R;
}

/// Replays Algorithm 1 at portfolio width 1 through public calls, the way
/// synthesize() runs it at Jobs=1 (one SketchSolver reused across sketches),
/// timing each layer's entry point.
InputRun replaySynthesis(const Input &In, const SynthOptions &Opts,
                         Layers &L) {
  Clock::time_point Start = Clock::now();
  InputRun Run;
  // The enumerator's and the solver's construction count toward their
  // layers: both build encodings or tester tables up front.
  std::unique_ptr<VcEnumerator> VcEnum = timed(L.VcS, [&] {
    return std::make_unique<VcEnumerator>(
        *In.Src, *In.Tgt, collectQueriedAttrs(*In.Prog, *In.Src), Opts.Vc);
  });
  std::unique_ptr<SketchSolver> Solver;
  SolveStats Agg;
  while (Run.Vcs < Opts.MaxVcs) {
    double Remaining = Opts.TimeBudgetSec - secondsSince(Start);
    if (Remaining <= 0) {
      Run.TimedOut = true;
      break;
    }
    ++L.VcCalls;
    std::optional<ValueCorrespondence> Phi =
        timed(L.VcS, [&] { return VcEnum->next(); });
    if (!Phi)
      break;
    ++Run.Vcs;
    ++L.SketchCalls;
    std::optional<Sketch> Sk = timed(L.SketchS, [&] {
      return generateSketch(*In.Prog, *In.Src, *In.Tgt, *Phi, Opts.SketchGen);
    });
    if (!Sk)
      continue;
    L.Holes += Sk->getNumHoles();
    double Budget = std::min(Opts.Solver.TimeBudgetSec, Remaining);
    SolveStats SS;
    Run.Prog = timed(L.SolveS, [&] {
      if (!Solver) {
        SolverOptions SO = Opts.Solver;
        SO.TimeBudgetSec = Budget;
        Solver = std::make_unique<SketchSolver>(*In.Src, *In.Prog, *In.Tgt, SO);
      } else {
        Solver->setTimeBudgetSec(Budget);
      }
      return Solver->solve(*Sk, SS);
    });
    Agg += SS;
    timed(L.SketchS, [&] { // Freeing a large sketch is sketch-layer work.
      Sk.reset();
      return 0;
    });
    if (Run.Prog)
      break;
    if (SS.TimedOut && secondsSince(Start) >= Opts.TimeBudgetSec) {
      Run.TimedOut = true;
      break;
    }
  }
  Run.WallSec = secondsSince(Start);
  Run.Iters = Agg.Iters;
  Run.SatCalls = Agg.SatCalls;
  if (Run.Prog)
    Run.Hash = programHash(*Run.Prog);
  L.Solve += Agg;
  return Run;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Json {
  std::string S = "{";
  Json &num(const std::string &K, double V) {
    return raw(K, obs::jsonNumber(V));
  }
  Json &count(const std::string &K, uint64_t V) {
    return raw(K, std::to_string(V));
  }
  Json &str(const std::string &K, const std::string &V) {
    return raw(K, obs::jsonString(V));
  }
  Json &raw(const std::string &K, const std::string &V) {
    if (S.size() > 1)
      S += ",";
    S += obs::jsonString(K) + ":" + V;
    return *this;
  }
  std::string done() const { return S + "}"; }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--self-test") {
      O.SelfTest = true;
      continue;
    }
    if (A != "--workload" && A != "--seed" && A != "--seconds" &&
        A != "--trace")
      return false;
    if (!(V = Val()))
      return false;
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
    } else {
      O.Trace = std::strcmp(V, "1") == 0;
      if (!O.Trace && std::strcmp(V, "0") != 0)
        return false;
    }
    if (End && *End)
      return false;
  }
  return O.SelfTest || !O.Workload.empty();
}

//===----------------------------------------------------------------------===//
// Self-test: the output check accepts a synthesized program and rejects the
// negative control.
//===----------------------------------------------------------------------===//

int selfTest() {
  std::vector<Input> Ins(1);
  Ins[0].Name = "Oracle-2";
  Ins[0].Text = renderDbp(Ins[0].Name);
  std::string Err;
  if (parseAll(Ins, true, Err) < 0 || !bindInput(Ins[0], Err)) {
    std::fprintf(stderr, "self-test: %s\n", Err.c_str());
    return 1;
  }
  const Input &In = Ins[0];
  SynthOptions Opts;
  Opts.TimeBudgetSec = 60;
  InputRun Run = runSynthesize(In, Opts);
  int Fails = 0;
  auto Expect = [&](bool Ok, const char *What) {
    std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
    Fails += !Ok;
  };
  Expect(Run.Prog.has_value(), "Oracle-2 synthesizes");
  if (!Run.Prog)
    return 1;
  Expect(outputCheck(In, *Run.Prog, 1, CheckSequences, false).Bad == 0,
         "output check accepts the synthesized program");
  Expect(outputCheck(In, *In.Prog, 1, CheckSequences, false).Bad > 0,
         "output check rejects the source program run on the target schema");
  std::optional<Program> Broken = emptyFirstUpdate(*Run.Prog, *In.Tgt);
  Expect(Broken && outputCheck(In, *Broken, 1, CheckSequences, true).Bad > 0,
         "output check rejects the program with one update body emptied");
  return Fails ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n"
                         "       perfbench --self-test\n");
    return 2;
  }
  if (O.SelfTest)
    return selfTest();

  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &C : workloads())
    if (O.Workload == C.Name)
      W = &C;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  // Inputs in seed order; rendering happens before any timing.
  std::vector<Input> Ins;
  for (const InputSpec &S : W->Inputs) {
    Input In;
    In.Name = S.Name;
    In.BudgetSec = S.BudgetSec;
    In.Text = renderDbp(S.Name);
    Ins.push_back(std::move(In));
  }
  Rng OrderRng(O.Seed);
  for (size_t I = Ins.size(); I > 1; --I)
    std::swap(Ins[I - 1], Ins[OrderRng.next(I)]);

  std::string Err;
  if (parseAll(Ins, true, Err) < 0) {
    std::fprintf(stderr, "perfbench: parse failed: %s\n", Err.c_str());
    return 1;
  }
  for (Input &In : Ins)
    if (!bindInput(In, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 1;
    }

  // setup_s: parsing every input, as migrate_tool does. One parse of a
  // workload is about a millisecond, so it is repeated before the first pass
  // and after every pass, and the fastest repetition taken: other tenants of
  // a shared machine only ever add time, and the samples span the run.
  std::vector<double> SetupTimes;
  auto MeasureSetup = [&] {
    for (int R = 0; R < 50; ++R)
      SetupTimes.push_back(parseAll(Ins, false, Err));
  };
  MeasureSetup();

  std::vector<std::string> Failures;
  auto Fail = [&](const std::string &Msg) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", Msg.c_str());
    Failures.push_back(Msg);
  };

  // Untraced passes: closed loop over the inputs, one client. After the
  // first three passes, which every input's fastest-pass figure needs,
  // another pass starts only if it should end within the measuring time, so
  // a run lasts about --seconds however fast the machine is. A traced run
  // stops at three: they are the warm reference the traced pass is held to.
  std::vector<std::vector<InputRun>> Passes;
  Clock::time_point MeasureStart = Clock::now();
  do {
    Clock::time_point PassStart = Clock::now();
    std::vector<InputRun> Runs;
    for (const Input &In : Ins)
      Runs.push_back(runSynthesize(In, synthOptions(*W, In.BudgetSec)));
    std::fprintf(stderr, "pass %zu: %.3f s:", Passes.size() + 1,
                 secondsSince(PassStart));
    for (size_t I = 0; I < Ins.size(); ++I)
      std::fprintf(stderr, " %s %.3f", Ins[I].Name.c_str(), Runs[I].WallSec);
    std::fprintf(stderr, "\n");
    Passes.push_back(std::move(Runs));
    MeasureSetup();
  } while (Passes.size() < 3 ||
           (!O.Trace && secondsSince(MeasureStart) * (Passes.size() + 1) /
                                Passes.size() <=
                            O.Seconds));

  // Each input's fastest pass: a slow stretch of a shared machine then has to
  // cover every pass of an input to move the figure.
  double TotalSec = 0, MaxInputSec = 0, CpuSec = 0;
  for (size_t I = 0; I < Ins.size(); ++I) {
    std::vector<double> Wall, Cpu;
    for (const std::vector<InputRun> &Pass : Passes) {
      Wall.push_back(Pass[I].WallSec);
      Cpu.push_back(Pass[I].CpuSec);
    }
    TotalSec += minOf(Wall);
    MaxInputSec = std::max(MaxInputSec, minOf(Wall));
    CpuSec += minOf(Cpu);
  }
  const double PeakRss = peakRssMb();
  const double SetupSec = minOf(SetupTimes);

  // Outcomes and within-run determinism: every pass must reproduce the first
  // pass's program and exact counts.
  uint64_t Attempted = 0, FailedInputs = 0;
  const std::vector<InputRun> &First = Passes.front();
  for (const std::vector<InputRun> &Pass : Passes)
    for (size_t I = 0; I < Ins.size(); ++I) {
      const InputRun &R = Pass[I], &F = First[I];
      ++Attempted;
      if (!R.Prog) {
        ++FailedInputs;
        Fail(Ins[I].Name + (R.TimedOut ? " timed out" : " not solved"));
      } else if (R.Hash != F.Hash || R.Iters != F.Iters || R.Vcs != F.Vcs ||
                 R.SatCalls != F.SatCalls) {
        Fail(Ins[I].Name + ": pass result differs from the first pass");
      }
    }

  // Output check, outside the timed phase. In a traced run it is timed as
  // the eval layer instead.
  auto CheckInput = [&](size_t I, const Program &P, Layers *L) -> bool {
    const Input &In = Ins[I];
    Clock::time_point T = Clock::now();
    CheckResult C =
        outputCheck(In, P, checkSeed(O.Seed, In.Name), CheckSequences, false);
    if (L) {
      L->EvalS += secondsSince(T);
      L->EvalSeqs += C.Seqs;
    }
    if (C.Bad)
      Fail(In.Name + ": output check failed on " + std::to_string(C.Bad) +
           " of " + std::to_string(C.Seqs) + " sequences, first: " +
           C.FirstBad);
    return C.Bad == 0;
  };
  // The check must catch a program with one update body emptied.
  auto NegativeControl = [&](size_t I, const Program &P) {
    const Input &In = Ins[I];
    std::optional<Program> Broken = emptyFirstUpdate(P, *In.Tgt);
    if (!Broken || outputCheck(In, *Broken, checkSeed(O.Seed, In.Name),
                               CheckSequences, true)
                           .Bad == 0)
      Fail(In.Name + ": negative control (one update body emptied) was not "
                     "caught by the output check");
  };

  Layers L;
  std::vector<InputRun> Traced;
  if (O.Trace) {
    L.ParseS = parseAll(Ins, false, Err);
    obs::setMetricsEnabled(true);
    for (size_t I = 0; I < Ins.size(); ++I) {
      const Input &In = Ins[I];
      SynthOptions Opts = synthOptions(*W, In.BudgetSec);
      Clock::time_point T = Clock::now();
      double Cpu0 = cpuSeconds();
      InputRun R;
      if (W->Jobs == 1) {
        obs::MetricsSnapshot Before = obs::registry().snapshot();
        R = replaySynthesis(In, Opts, L);
        addMetrics(L.Metrics, obs::registry().snapshot() - Before);
      } else {
        SynthResult SR;
        R = runSynthesize(In, Opts, &SR);
        addMetrics(L.Metrics, SR.Metrics);
        L.VcCalls += SR.Stats.NumVcs;
        L.SketchCalls += SR.Stats.NumVcs;
        L.Solve += SR.Stats.Solve;
      }
      L.SynthCpuS += cpuSeconds() - Cpu0;
      L.SynthWallS += R.WallSec;
      if (R.Hash != First[I].Hash || R.Iters != First[I].Iters ||
          R.Vcs != First[I].Vcs || R.SatCalls != First[I].SatCalls)
        Fail(In.Name + ": traced replay differs from the untraced run (iters " +
             std::to_string(R.Iters) + " vs " +
             std::to_string(First[I].Iters) + ")");
      if (R.Prog) {
        // The winner again at test bounds, then at verify bounds: the two
        // uses of synth/Tester, each with its own sequence count.
        auto Replay = [&](const TesterOptions &TO, double &Busy,
                          uint64_t &Seqs, const char *What) {
          Clock::time_point TT = Clock::now();
          EquivalenceTester Tester(*In.Src, *In.Prog, *In.Tgt, TO);
          if (!Tester.test(*R.Prog).isEquivalent())
            Fail(In.Name + ": winner fails the " + What);
          Busy += secondsSince(TT);
          Seqs = Tester.getNumSequencesRun();
        };
        Replay(Opts.Solver.Test, L.TesterS, R.TesterSeqs, "bounded tester");
        Replay(Opts.Solver.Verify, L.VerifyS, R.VerifySeqs, "deep verifier");
        L.TesterSeqs += R.TesterSeqs;
        L.VerifySeqs += R.VerifySeqs;
        if (!CheckInput(I, *R.Prog, &L))
          ++FailedInputs;
      }
      double Wall = secondsSince(T);
      double Self = L.VcS + L.SketchS + L.SolveS + L.TesterS + L.VerifyS +
                    L.EvalS;
      if (W->Jobs == 1 && Self > L.WallS + Wall + 1e-6)
        Fail(In.Name + ": layer self times exceed the traced wall");
      L.WallS += Wall;
      if (R.Prog)
        NegativeControl(I, *R.Prog);
      Traced.push_back(std::move(R));
    }
    obs::setMetricsEnabled(false);
  } else {
    // Every pass produced the same program (checked above), so a failed
    // check fails the input in every pass.
    for (size_t I = 0; I < Ins.size(); ++I)
      if (First[I].Prog) {
        if (!CheckInput(I, *First[I].Prog, nullptr))
          FailedInputs += Passes.size();
        NegativeControl(I, *First[I].Prog);
      }
  }

  // The result document, the last stdout line, for perfbench/run.py.
  Json E2E;
  E2E.num("total_s", TotalSec)
      .num("max_input_s", MaxInputSec)
      .num("cpu_s", CpuSec)
      .num("peak_rss_mb", PeakRss)
      .num("setup_s", SetupSec)
      .num("failed_frac", static_cast<double>(FailedInputs) /
                              static_cast<double>(Attempted));

  Json Lay;
  if (O.Trace) {
    const obs::MetricsSnapshot &M = L.Metrics;
    double SolveS = L.SolveS, VcS = L.VcS, SketchS = L.SketchS;
    uint64_t Holes = L.Holes;
    double Self = 0;
    if (W->Jobs == 1) {
      Self = VcS + SketchS + SolveS;
    } else {
      // Inside synthesize() the layers run on pool workers; their busy
      // times come from the pipeline's own latency histograms and may sum
      // past the wall. The accounting span is synthesize() as a whole.
      VcS = histSumSec(M, "vc.next_us");
      SketchS = histSumSec(M, "sketch.generate_us");
      SolveS = histSumSec(M, "solver.solve_us");
      auto It = M.Histograms.find("sketch.holes");
      Holes = It == M.Histograms.end() ? 0 : It->second.Sum;
      Self = L.SynthWallS;
    }
    Self += L.TesterS + L.VerifyS + L.EvalS;
    uint64_t PlanHits = counter(M, "plan.cache_hits");
    uint64_t PlanLookups = PlanHits + counter(M, "eval.plan_compiles");
    uint64_t SrcHits = counter(M, "tester.src_cache_hits");
    uint64_t SrcLookups = SrcHits + counter(M, "tester.src_cache_misses");
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    double Untraced = TotalSec;
    Lay.num("parse.busy_s", L.ParseS)
        .count("vc.calls", L.VcCalls)
        .num("vc.busy_s", VcS)
        .count("sketch.calls", L.SketchCalls)
        .num("sketch.busy_s", SketchS)
        .count("sketch.holes", Holes)
        .num("synth.solve_busy_s", SolveS)
        .count("synth.iters", L.Solve.Iters)
        .count("synth.rejected", L.Solve.Rejected)
        .num("synth.mfi_hit_ratio", Ratio(L.Solve.MfiPruneHits, L.Solve.Rejected))
        .num("synth.solve_verify_s", L.Solve.VerifyTimeSec)
        .num("synth.search_self_s", SolveS - L.Solve.VerifyTimeSec)
        .count("sat.calls", L.Solve.SatCalls)
        .count("sat.conflicts", L.Solve.SatConflicts)
        .num("tester.busy_s", L.TesterS)
        .count("tester.seqs", L.TesterSeqs)
        .num("tester.seqs_per_s", Ratio(L.TesterSeqs, L.TesterS))
        .num("verify.busy_s", L.VerifyS)
        .count("verify.seqs", L.VerifySeqs)
        .num("eval.busy_s", L.EvalS)
        .count("eval.seqs", L.EvalSeqs)
        .count("relational.cow_clones", counter(M, "table.cow_clones"))
        .count("relational.index_builds", counter(M, "eval.index_builds"))
        .count("eval.plan_lookups", PlanLookups)
        .num("eval.plan_hit_ratio", Ratio(PlanHits, PlanLookups))
        .count("synth.src_cache_lookups", SrcLookups)
        .num("synth.src_cache_hit_ratio", Ratio(SrcHits, SrcLookups))
        .count("pool.tasks", counter(M, "pool.tasks"))
        .count("pool.steals", counter(M, "pool.steals"))
        .num("pool.idle_frac",
             1 - Ratio(L.SynthCpuS, W->Jobs * L.SynthWallS))
        .num("other_s", L.WallS - Self)
        .num("trace.wall_s", L.WallS)
        .num("trace.synth_wall_s", L.SynthWallS)
        .num("trace.untraced_total_s", Untraced)
        .num("trace.overhead_s", L.SynthWallS - Untraced);
  }

  std::string InputsJson = "[";
  for (size_t I = 0; I < Ins.size(); ++I) {
    const InputRun &F = First[I];
    Json J;
    J.str("name", Ins[I].Name)
        .str("prog_hash", F.Hash)
        .num("wall_s", F.WallSec)
        .count("iters", F.Iters)
        .count("vcs", F.Vcs)
        .count("sat_calls", F.SatCalls);
    if (O.Trace)
      J.count("tester_seqs", Traced[I].TesterSeqs)
          .count("verify_seqs", Traced[I].VerifySeqs);
    InputsJson += (I ? "," : "") + J.done();
  }
  InputsJson += "]";

  std::string FailJson = "[";
  for (size_t I = 0; I < Failures.size(); ++I)
    FailJson += (I ? "," : "") + obs::jsonString(Failures[I]);
  FailJson += "]";

  Json Doc;
  Doc.str("workload", W->Name)
      .count("seed", O.Seed)
      .count("jobs", W->Jobs)
      .count("passes", Passes.size())
      .count("attempted", Attempted)
      .count("failed", FailedInputs)
      .raw("failures", FailJson)
      .raw("end_to_end", E2E.done())
      .raw("per_layer", O.Trace ? Lay.done() : "{}")
      .raw("inputs", InputsJson);
  std::printf("%s\n", Doc.done().c_str());
  return 0;
}
