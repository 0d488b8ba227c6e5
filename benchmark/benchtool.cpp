//===- benchtool.cpp - Input generator, oracle and traced replay ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// The in-process half of the repository benchmark (benchmark/run.py drives
// it). It never stands in for cscpta on a measured path; it only
//
//   gen <tier> <seed> <out.jir>
//       writes the scaling tier <tier> of src/workload, re-seeded with
//       <seed>, as a .jir file;
//   facts <seed> <max-vars> <file.jir>...
//       runs the concrete interpreter (src/interp, no solver code) on the
//       program and prints the observed variable points-to facts of up to
//       <max-vars> variables, chosen by <seed>, as JSON;
//   catalog <file.jir>
//       prints the names a generated session may query and edit, as JSON;
//   calibrate
//       times a fixed memory-bound task that shares no code with the
//       program (hash-map inserts and lookups, a sort) and prints its wall
//       time in ms: the run scales its times by it to a reference host
//       speed;
//   trace <workload> <inputs-dir> <trace.json>
//       replays one op of the workload in-process through each module's
//       public functions, once untraced and once with spans recorded around
//       every call, then probes the layers the op bypasses on the same
//       inputs. Writes the spans as Chrome trace-event JSON and prints the
//       per-layer table and, as the last stdout line, the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "client/BatchExecutor.h"
#include "client/Report.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "server/AnalysisServer.h"
#include "stdlib/Stdlib.h"
#include "store/ResultCodec.h"
#include "store/ResultStore.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace csc;
namespace fs = std::filesystem;

namespace {

using NamedSources = std::vector<std::pair<std::string, std::string>>;

const std::vector<std::string> AllSpecs = {"ci", "csc", "2obj", "zipper-e"};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

/// The sources cscpta parses for \p Files: the modelled stdlib, then each
/// file under its path, in order.
bool loadSources(const std::vector<std::string> &Files, NamedSources &Out) {
  Out.emplace_back("<stdlib>", stdlibSource());
  for (const std::string &F : Files) {
    std::string Text;
    if (!readFile(F, Text)) {
      std::fprintf(stderr, "benchtool: cannot read '%s'\n", F.c_str());
      return false;
    }
    Out.emplace_back(F, std::move(Text));
  }
  return true;
}

std::unique_ptr<Program> parseVerified(const NamedSources &Sources) {
  auto P = std::make_unique<Program>();
  std::vector<std::string> Diags;
  if (!parseProgram(*P, Sources, Diags) || !verifyProgram(*P).empty() ||
      P->entry() == InvalidId) {
    for (const std::string &D : Diags)
      std::fprintf(stderr, "%s\n", D.c_str());
    std::fprintf(stderr, "benchtool: program failed to load\n");
    return nullptr;
  }
  return P;
}

/// "Class.method.var", or "" when the server's first-match name lookup
/// would resolve that spelling to a different variable.
std::string qualifiedVar(const Program &P, VarId V) {
  const VarInfo &VI = P.var(V);
  const MethodInfo &MI = P.method(VI.Method);
  const TypeInfo &TI = P.type(MI.Owner);
  if (P.typeByName(TI.Name) != MI.Owner)
    return "";
  for (MethodId M : TI.Methods) {
    if (P.method(M).Name != MI.Name)
      continue;
    if (M != VI.Method)
      return "";
    for (VarId W : MI.Vars)
      if (P.var(W).Name == VI.Name)
        return W == V ? TI.Name + "." + MI.Name + "." + VI.Name : "";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// gen / facts / catalog
//===----------------------------------------------------------------------===//

int cmdGen(const std::string &Tier, uint64_t Seed, const std::string &Out) {
  for (WorkloadConfig C : scalingSuite()) {
    if (C.Name != Tier)
      continue;
    C.Seed = C.Seed * 1000003ULL + Seed;
    std::ofstream OS(Out, std::ios::binary);
    OS << generateWorkload(C);
    return OS.good() ? 0 : 1;
  }
  std::fprintf(stderr, "benchtool: unknown tier '%s'\n", Tier.c_str());
  return 2;
}

int cmdFacts(uint64_t Seed, size_t MaxVars,
             const std::vector<std::string> &Files) {
  NamedSources Sources;
  if (!loadSources(Files, Sources))
    return 1;
  std::unique_ptr<Program> P = parseVerified(Sources);
  if (!P)
    return 1;
  InterpOptions IO;
  IO.Seed = Seed;
  DynamicFacts F = interpret(*P, IO);

  std::vector<std::pair<std::string, std::vector<ObjId>>> Vars;
  for (const auto &[V, Objs] : F.VarPointsTo) {
    std::string Name = qualifiedVar(*P, V);
    if (Name.empty() || Objs.empty())
      continue;
    std::vector<ObjId> Sorted(Objs.begin(), Objs.end());
    std::sort(Sorted.begin(), Sorted.end());
    Vars.emplace_back(std::move(Name), std::move(Sorted));
  }
  std::sort(Vars.begin(), Vars.end());
  // A seeded partial Fisher-Yates shuffle picks the sample.
  Rng R(Seed * 7919 + 1);
  size_t Keep = std::min(MaxVars, Vars.size());
  for (size_t I = 0; I != Keep; ++I)
    std::swap(Vars[I], Vars[I + R.nextInRange(static_cast<uint32_t>(
                                        Vars.size() - I))]);
  Vars.resize(Keep);
  std::sort(Vars.begin(), Vars.end());

  JsonWriter J;
  J.beginObject()
      .kv("steps", F.Steps)
      .kv("reached_methods", static_cast<uint64_t>(F.ReachedMethods.size()))
      .kv("observed_vars", static_cast<uint64_t>(F.VarPointsTo.size()));
  J.key("vars").beginObject();
  for (const auto &[Name, Objs] : Vars) {
    J.key(Name).beginArray();
    for (ObjId O : Objs)
      J.value(O);
    J.endArray();
  }
  J.endObject().endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

/// Names a generated serve session can use: the queryable variables and
/// methods of the scenario drivers, the scenario entry points (static
/// `run()`), and the entity classes with a `setVal`/`getVal` pair.
int cmdCatalog(const std::string &File) {
  NamedSources Sources;
  if (!loadSources({File}, Sources))
    return 1;
  std::unique_ptr<Program> P = parseVerified(Sources);
  if (!P)
    return 1;
  JsonWriter J;
  J.beginObject();
  J.key("vars").beginArray();
  for (VarId V = 0; V != P->numVars(); ++V) {
    const MethodInfo &MI = P->method(P->var(V).Method);
    if (P->type(MI.Owner).Name.rfind("Scen_", 0) != 0)
      continue;
    std::string Name = qualifiedVar(*P, V);
    if (!Name.empty())
      J.value(Name);
  }
  J.endArray();
  J.key("methods").beginArray();
  for (TypeId T = 0; T != P->numTypes(); ++T) {
    const TypeInfo &TI = P->type(T);
    if (TI.Name.rfind("Scen_", 0) != 0)
      continue;
    for (size_t I = 0; I != TI.Methods.size(); ++I) {
      const std::string &Name = P->method(TI.Methods[I]).Name;
      bool First = true;
      for (size_t J2 = 0; J2 != I; ++J2)
        First = First && P->method(TI.Methods[J2]).Name != Name;
      if (First)
        J.value(TI.Name + "." + Name);
    }
  }
  J.endArray();
  J.key("scenarios").beginArray();
  for (TypeId T = 0; T != P->numTypes(); ++T) {
    const TypeInfo &TI = P->type(T);
    for (MethodId M : TI.Methods)
      if (TI.Name.rfind("Scen_", 0) == 0 && P->method(M).Name == "run" &&
          P->method(M).IsStatic && P->method(M).Params.empty())
        J.value(TI.Name);
  }
  J.endArray();
  J.key("entities").beginArray();
  for (TypeId T = 0; T != P->numTypes(); ++T) {
    const TypeInfo &TI = P->type(T);
    bool Set = false, Get = false;
    for (MethodId M : TI.Methods) {
      Set = Set || P->method(M).Name == "setVal";
      Get = Get || P->method(M).Name == "getVal";
    }
    if (TI.Kind == TypeKind::Class && !TI.IsAbstract && Set && Get)
      J.value(TI.Name);
  }
  J.endArray();
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

int cmdCalibrate() {
  auto Start = std::chrono::steady_clock::now();
  std::vector<uint32_t> V(1 << 22);
  uint64_t X = 88172645463325252ULL;
  for (uint32_t &E : V) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    E = static_cast<uint32_t>(X);
  }
  std::unordered_map<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I != (1 << 19); ++I)
    M[V[I]] = I;
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != (1 << 21); ++I) {
    auto It = M.find(V[I * 2]);
    Sum += It == M.end() ? 0 : It->second;
  }
  std::sort(V.begin(), V.begin() + (1 << 21));
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  // The checksum keeps the work observable.
  std::printf("%.6f %llu\n", Ms,
              static_cast<unsigned long long>(Sum + V[1 << 20]));
  return 0;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Spans recorded from this file around calls into the program's modules.
/// Kept in memory; written as Chrome trace-event JSON at the end. When
/// disabled, begin/end cost one branch.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double EndUs = 0;
    int Parent = -1;
    int Op = 0;
  };

  explicit Tracer(bool On) : On(On), T0(Clock::now()) {}

  int begin(std::string Name) {
    if (!On)
      return -1;
    Spans.push_back({std::move(Name), nowUs(), -1, Open.empty() ? -1 : Open.back(),
                     Op});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].EndUs = nowUs();
    while (!Open.empty() && Open.back() != Id)
      Open.pop_back();
    if (!Open.empty())
      Open.pop_back();
  }
  void setOp(int Id) { Op = Id; }
  void rename(int Id, std::string Name) {
    if (Id >= 0)
      Spans[Id].Name = std::move(Name);
  }

  const std::vector<Span> &spans() const { return Spans; }
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  /// Durations in ms of the spans named \p Name.
  std::vector<double> durationsMs(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Out.push_back((S.EndUs - S.StartUs) / 1000.0);
    return Out;
  }

  bool writeChrome(const std::string &Path) const;

private:
  using Clock = std::chrono::steady_clock;
  bool On;
  Clock::time_point T0;
  int Op = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name) : T(T), Id(T.begin(std::move(Name))) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Id;
};

bool Tracer::writeChrome(const std::string &Path) const {
  JsonWriter J;
  J.beginObject().kv("displayTimeUnit", "ms");
  J.key("traceEvents").beginArray();
  for (const Span &S : Spans) {
    J.beginObject()
        .kv("name", S.Name)
        .kv("cat", S.Name.substr(0, S.Name.find('.')))
        .kv("ph", "X")
        .kv("ts", S.StartUs)
        .kv("dur", S.EndUs - S.StartUs)
        .kv("pid", 1)
        .kv("tid", 1);
    J.key("args")
        .beginObject()
        .kv("op", S.Op)
        .kv("parent", S.Parent < 0 ? std::string() : Spans[S.Parent].Name)
        .endObject();
    J.endObject();
  }
  J.endArray().endObject();
  std::ofstream OS(Path, std::ios::binary);
  OS << J.str() << "\n";
  return OS.good();
}

/// Layers are the first component of a span name; spans whose layer is
/// "op", "probe" or "bench" are structure or benchmark work, not a layer.
bool isLayerSpan(const std::string &Name) {
  std::string L = Name.substr(0, Name.find('.'));
  return L != "op" && L != "probe" && L != "bench";
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

/// Counts gathered while replaying; times come from the spans.
using Counts = std::map<std::string, double>;

struct Replay {
  Tracer &T;
  Counts &C;
  std::string ScratchDir;
  /// Round-trip every completed run through the store (a probe: set on
  /// the traced replay of workloads whose op bypasses the store).
  bool StoreProbe = false;
  unsigned Failures = 0;
  unsigned StoreSeq = 0;

  void fail(const std::string &Why) {
    ++Failures;
    std::fprintf(stderr, "benchtool: replay failure: %s\n", Why.c_str());
  }
  void add(const std::string &Key, double V) { C[Key] += V; }

  /// frontend + ir: what cscpta does from .jir bytes to a verified program.
  std::unique_ptr<Program> load(const NamedSources &Sources) {
    uint64_t Bytes = 0, Tokens = 0;
    {
      ScopedSpan S(T, "frontend.lex");
      for (const auto &Src : Sources) {
        Bytes += Src.second.size();
        Tokens += lex(Src.second).size();
      }
    }
    add("frontend.tokens", static_cast<double>(Tokens));
    add("frontend.input_mb", static_cast<double>(Bytes) / (1 << 20));
    auto P = std::make_unique<Program>();
    std::vector<std::string> Diags;
    bool Ok;
    {
      ScopedSpan S(T, "frontend.parse");
      Ok = parseProgram(*P, Sources, Diags);
    }
    if (!Ok) {
      fail("parse");
      return nullptr;
    }
    {
      ScopedSpan S(T, "ir.verify");
      Ok = verifyProgram(*P).empty() && P->entry() != InvalidId;
    }
    if (!Ok) {
      fail("verify");
      return nullptr;
    }
    add("ir.stmts", P->numStmts());
    return P;
  }

  /// One spec through the session, with the session's phase callbacks
  /// split into zipper / pta / client spans.
  AnalysisRun runSpec(const Program &P, const std::string &Spec) {
    int Phase = -1;
    AnalysisSession::Options O;
    O.Progress = [&](const char *Name, const std::string &) {
      T.end(Phase);
      std::string N = Name;
      Phase = T.begin(N == "zipper-pre" ? "zipper.pre"
                      : N == "solve"    ? "pta.solve." + Spec
                                        : "client.metrics." + Spec);
    };
    AnalysisSession Session(P, O);
    int Run = T.begin("client.run." + Spec);
    AnalysisRun R = Session.run(Spec);
    T.end(Phase);
    T.end(Run);
    if (!R.completed()) {
      fail("run " + Spec + ": " + runStatusName(R.Status));
      return R;
    }
    const SolverStats &St = R.Result.Stats;
    add("pta.pts_insertions." + Spec, static_cast<double>(St.PtsInsertions));
    add("pta.pfg_edges." + Spec, static_cast<double>(St.PFGEdges));
    add("pta.worklist_pops." + Spec, static_cast<double>(St.WorklistPops));
    add("pta.scc_members." + Spec, static_cast<double>(St.Scc.MembersCollapsed));
    if (Spec == "zipper-e")
      add("zipper.selected_methods", R.SelectedMethods);
    if (Spec == "csc") {
      add("csc.cut_stores", static_cast<double>(R.Csc.CutStores));
      add("csc.cut_returns", static_cast<double>(R.Csc.CutReturns));
      add("csc.shortcut_edges", static_cast<double>(R.Csc.ShortcutEdges));
    }
    countSets(R.Result, Spec);
    return R;
  }

  /// pta.set_elems / pta.distinct_sets: every points-to set of the result,
  /// distinct by content (64-bit hash, confirmed by comparison).
  void countSets(const PTAResult &R, const std::string &Spec) {
    ScopedSpan S(T, "bench.count_sets");
    std::unordered_map<uint64_t, std::vector<const PointsToSet *>> ByHash;
    uint64_t Elems = 0, Distinct = 0;
    auto Visit = [&](const PointsToSet &Set) {
      Elems += Set.size();
      uint64_t H = 0x9e3779b97f4a7c15ULL ^ Set.size();
      Set.forEach([&](uint32_t O) { H = (H ^ O) * 0x100000001b3ULL; });
      auto &Bucket = ByHash[H];
      for (const PointsToSet *Seen : Bucket)
        if (Seen->size() == Set.size() &&
            Seen->intersectCount(Set) == Set.size())
          return;
      Bucket.push_back(&Set);
      ++Distinct;
    };
    for (const PointsToSet &Set : R.VarPts)
      Visit(Set);
    for (const auto &KV : R.FieldPts)
      Visit(KV.second);
    for (const auto &KV : R.ArrayPts)
      Visit(KV.second);
    for (const auto &KV : R.StaticPts)
      Visit(KV.second);
    add("pta.set_elems." + Spec, static_cast<double>(Elems));
    add("pta.distinct_sets." + Spec, static_cast<double>(Distinct));
  }

  void report(const AnalysisRun &R) {
    std::string Json;
    {
      ScopedSpan S(T, "client.report");
      Json = runJson(R);
    }
    add("client.report_kb", Json.size() / 1024.0);
  }

  /// store: encode, publish, look up and decode one completed run through
  /// a scratch store of its own.
  void storeRoundTrip(const Program &P, const AnalysisRun &R,
                      const std::string &Spec) {
    std::string Dir =
        ScratchDir + "/probe-store-" + std::to_string(StoreSeq++);
    ResultStore::Options SO;
    SO.Dir = Dir;
    std::optional<ResultStore> Store;
    {
      ScopedSpan S(T, "store.open");
      Store.emplace(SO);
    }
    if (!Store->usable()) {
      fail("store unusable: " + Store->error());
      return;
    }
    // Encoding is timed on its own; publish encodes again and writes, as
    // the cold batch pass does.
    StoredResult Value;
    std::string Bytes;
    {
      ScopedSpan S(T, "store.encode." + Spec);
      JsonWriter J;
      appendRunJson(J, R, /*IncludeTimings=*/false);
      Value = storedFromRun(R, J.take());
      Bytes = serializeStoredResult(Value);
    }
    add("store.entry_mb." + Spec, static_cast<double>(Bytes.size()) / (1 << 20));
    std::string Key = resultStoreKey(programFingerprint(P), ~0ULL, 0,
                                     registryFingerprint(AnalysisRegistry::global()),
                                     Spec);
    bool Published, Found;
    {
      ScopedSpan S(T, "store.publish." + Spec);
      Published = Store->publish(Key, Value);
    }
    StoredResult Back;
    {
      ScopedSpan S(T, "store.lookup." + Spec);
      Found = Store->lookup(Key, Back);
    }
    StoredResult Decoded;
    {
      ScopedSpan S(T, "store.decode." + Spec);
      Found = deserializeStoredResult(Bytes, Decoded) && Found;
    }
    if (!Published || !Found || !resultsEqual(Back.Result, R.Result))
      fail("store round trip " + Spec);
    addStoreCounters(*Store);
    Store.reset();
    ScopedSpan S(T, "bench.cleanup");
    fs::remove_all(Dir);
  }

  void addStoreCounters(const ResultStore &Store) {
    ResultStore::Counters Ct = Store.counters();
    add("store.hits", static_cast<double>(Ct.Hits));
    add("store.misses", static_cast<double>(Ct.Misses));
    add("store.publish_failures", static_cast<double>(Ct.PublishFailures));
  }

  /// One pass of \p Exec, as `cscpta --batch` runs it.
  BatchReport batch(BatchExecutor &Exec, const std::vector<BatchEntry> &Entries,
                    const std::string &SpanName) {
    BatchReport Rep;
    {
      ScopedSpan S(T, SpanName);
      Rep = Exec.run(Entries);
    }
    double Busy = 0;
    for (const BatchEntryResult &E : Rep.Entries)
      for (const BatchRunResult &R : E.Runs)
        Busy += R.WallMs;
    add("client.cache_hits", static_cast<double>(Rep.CacheHits));
    add("client.cache_misses", static_cast<double>(Rep.CacheMisses));
    add("client.batch_busy_ms", Busy);
    add("client.batch_slot_ms", Exec.options().Jobs * Rep.WallMs);
    if (Rep.anyLoadFailed() || Rep.anySpecError() || Rep.anyExhausted())
      fail(SpanName);
    return Rep;
  }

  /// One NDJSON line through the server; answers classified by what
  /// served them (meta.mode, and whether the spec has resident state).
  std::string serve(AnalysisServer &Server, const std::string &Line) {
    JsonValue Req;
    std::string Err;
    parseJson(Line, Req, Err);
    const JsonValue *Op = Req.get("op");
    std::string OpName = Op && Op->isString() ? Op->Str : "";
    int Id = T.begin(OpName == "add-delta" ? "server.delta" : "server.query");
    std::string Answer = Server.handleLine(Line);
    T.end(Id);
    JsonValue A;
    if (!parseJson(Answer, A, Err) || !A.get("ok") || !A.get("ok")->B) {
      fail("server answered: " + Answer.substr(0, 200));
      return Answer;
    }
    if (OpName == "query") {
      const JsonValue *Meta = A.get("meta");
      const JsonValue *Mode = Meta ? Meta->get("mode") : nullptr;
      const JsonValue *Spec = A.get("spec");
      std::string Kind =
          Mode && Mode->Str == "demand" ? "demand"
          : Spec && (Spec->Str == "csc" || Spec->Str == "zipper-e")
              ? "fallback"
              : "resident";
      T.rename(Id, "server.query." + Kind);
      if (const JsonValue *E = Meta ? Meta->get("enabled_stmts") : nullptr)
        add("server.slice_stmts", E->Num);
    }
    return Answer;
  }

  /// server.demand_solves / warm_resumes / full_solves from `stats`.
  void serverStats(AnalysisServer &Server) {
    std::string Err;
    JsonValue A;
    if (!parseJson(Server.handleLine("{\"op\":\"stats\"}"), A, Err)) {
      fail("stats");
      return;
    }
    const JsonValue *Specs = A.get("specs");
    for (const JsonValue &S : Specs ? Specs->Arr : std::vector<JsonValue>{})
      for (const char *K : {"demand_solves", "warm_resumes", "full_solves"})
        if (const JsonValue *V = S.get(K))
          add(std::string("server.") + K, V->Num);
  }

  std::unique_ptr<AnalysisServer> loadServer(const NamedSources &Sources) {
    // The server prepends the stdlib itself.
    NamedSources Files(Sources.begin() + 1, Sources.end());
    auto Server = std::make_unique<AnalysisServer>();
    std::vector<std::string> Diags;
    bool Ok;
    {
      ScopedSpan S(T, "server.load");
      Ok = Server->load(Files, Diags);
    }
    if (!Ok)
      fail("server load");
    return Server;
  }
};


//===----------------------------------------------------------------------===//
// Workload replays
//===----------------------------------------------------------------------===//

struct Inputs {
  NamedSources Program;               ///< solve-xxl / serve-edit.
  std::vector<BatchEntry> Manifest;   ///< batch-store.
  std::vector<NamedSources> Programs; ///< batch-store, per manifest entry.
  std::vector<std::string> Session;   ///< serve-edit requests.
};

/// A variable the server probe can query: the first nameable local of a
/// scenario driver.
std::string probeVar(const Program &P) {
  for (VarId V = 0; V != P.numVars(); ++V) {
    const MethodInfo &MI = P.method(P.var(V).Method);
    if (P.type(MI.Owner).Name.rfind("Scen_", 0) != 0)
      continue;
    std::string N = qualifiedVar(P, V);
    if (!N.empty())
      return N;
  }
  return "";
}

/// Server probe: a demand, a fallback and a resident answer, a
/// warm-startable delta appending to the queried method, and the query
/// again (a warm resume), then stats.
void probeServer(Replay &R, const NamedSources &Sources) {
  ScopedSpan S(R.T, "probe.server");
  std::unique_ptr<AnalysisServer> Server = R.loadServer(Sources);
  std::string Var = probeVar(Server->program());
  std::string Q =
      "{\"op\":\"query\",\"kind\":\"points-to\",\"var\":\"" + Var + "\"";
  for (const char *Tail : {"}", ",\"spec\":\"csc\"}", ",\"mode\":\"full\"}"})
    R.serve(*Server, Q + Tail);
  size_t Dot = Var.find('.');
  std::string Method = Var.substr(Dot + 1, Var.rfind('.') - Dot - 1);
  R.serve(*Server, "{\"op\":\"add-delta\",\"source\":\"extend class " +
                       Var.substr(0, Dot) + " { append method " + Method +
                       " { var bench_probe: Object; bench_probe = new "
                       "Object; } }\"}");
  R.serve(*Server, Q + "}");
  R.serverStats(*Server);
}

/// Batch probe: two passes of one executor over the program, so the
/// second pass is served from the result cache.
void probeBatch(Replay &R, const std::string &File) {
  ScopedSpan S(R.T, "probe.batch");
  BatchEntry E;
  E.Files = {File};
  E.Specs = {"ci"};
  BatchExecutor Exec;
  for (const char *Pass : {"client.batch.probe", "client.batch.probe_cached"})
    R.batch(Exec, {E}, Pass);
}

/// Every spec of \p Specs through the session, the report and the store.
void probeLayers(Replay &R, const NamedSources &Sources,
                 const std::vector<std::string> &Specs) {
  ScopedSpan S(R.T, "probe.layers");
  std::unique_ptr<Program> P = R.load(Sources);
  if (!P)
    return;
  for (const std::string &Spec : Specs) {
    AnalysisRun Run = R.runSpec(*P, Spec);
    if (!Run.completed())
      continue;
    R.report(Run);
    R.storeRoundTrip(*P, Run, Spec);
  }
}

/// solve-xxl op: `cscpta <program> --json --analyses ci,csc,2obj,zipper-e`.
void opSolve(Replay &R, const Inputs &In) {
  std::unique_ptr<Program> P = R.load(In.Program);
  if (!P)
    return;
  for (const std::string &Spec : AllSpecs) {
    AnalysisRun Run = R.runSpec(*P, Spec);
    if (!Run.completed())
      continue;
    R.report(Run);
    if (R.StoreProbe) {
      ScopedSpan S(R.T, "probe.store");
      R.storeRoundTrip(*P, Run, Spec);
    }
  }
}

void probesSolve(Replay &R, const Inputs &In) {
  probeBatch(R, In.Program.back().first);
  probeServer(R, In.Program);
}

/// batch-store op: `cscpta --batch --jobs 1` with no store, a cold store
/// and the warm store; the three aggregates must be byte-identical. One
/// pool thread, as in run.py: more race on Program::isSubtype's cache.
void opBatch(Replay &R, const Inputs &In) {
  std::string StoreDir = R.ScratchDir + "/batch-store";
  fs::remove_all(StoreDir);
  BatchExecutor::Options O;
  O.Jobs = 1;
  std::string Oracle;
  for (const char *Pass :
       {"client.batch.nostore", "client.batch.cold", "client.batch.warm"}) {
    std::shared_ptr<ResultStore> Store;
    if (Oracle.size()) {
      ResultStore::Options SO;
      SO.Dir = StoreDir;
      Store = std::make_shared<ResultStore>(SO);
    }
    O.Store = Store;
    BatchExecutor Exec(O);
    std::string Agg = R.batch(Exec, In.Manifest, Pass).aggregateJson();
    if (Oracle.empty())
      Oracle = Agg;
    else if (Agg != Oracle)
      R.fail(std::string(Pass) + " aggregate differs from the no-store pass");
    if (Store)
      R.addStoreCounters(*Store);
  }
  fs::remove_all(StoreDir);
}

/// The op parses inside BatchExecutor, so frontend, pta and store are
/// probed per program; zipper-e and the server on the first program.
void probesBatch(Replay &R, const Inputs &In) {
  for (size_t I = 0; I != In.Programs.size(); ++I) {
    std::vector<std::string> Specs = In.Manifest[I].Specs;
    if (I == 0)
      Specs.push_back("zipper-e");
    probeLayers(R, In.Programs[I], Specs);
  }
  probeServer(R, In.Programs[0]);
}

/// serve-edit op: one `cscpta --serve` NDJSON session.
void opServe(Replay &R, const Inputs &In) {
  std::unique_ptr<AnalysisServer> Server = R.loadServer(In.Program);
  for (const std::string &Line : In.Session)
    R.serve(*Server, Line);
  R.serverStats(*Server);
}

void probesServe(Replay &R, const Inputs &In) {
  probeLayers(R, In.Program, AllSpecs);
  probeBatch(R, In.Program.back().first);
}

bool loadInputs(const std::string &Workload, const std::string &Dir,
                Inputs &In) {
  if (Workload == "solve-xxl")
    return loadSources({Dir + "/program.jir"}, In.Program);
  if (Workload == "serve-edit") {
    In.Session = readLines(Dir + "/session.ndjson");
    return !In.Session.empty() &&
           loadSources({Dir + "/program.jir"}, In.Program);
  }
  if (Workload == "batch-store") {
    std::string Err;
    if (!loadBatchManifest(Dir + "/manifest.json", In.Manifest, Err)) {
      std::fprintf(stderr, "benchtool: %s\n", Err.c_str());
      return false;
    }
    for (const BatchEntry &E : In.Manifest) {
      In.Programs.emplace_back();
      if (!loadSources(E.Files, In.Programs.back()))
        return false;
    }
    return !In.Manifest.empty();
  }
  std::fprintf(stderr, "benchtool: unknown workload '%s'\n", Workload.c_str());
  return false;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double total(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Self time per span name: duration minus the time its children cover.
std::map<std::string, std::pair<double, unsigned>>
selfTimes(const std::vector<Tracer::Span> &Spans) {
  std::vector<double> ChildUs(Spans.size(), 0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, std::pair<double, unsigned>> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    auto &[Ms, N] = Out[Spans[I].Name];
    Ms += (Spans[I].EndUs - Spans[I].StartUs - ChildUs[I]) / 1000.0;
    ++N;
  }
  return Out;
}

/// Share of the root spans' time covered by outermost layer spans.
double coverage(const std::vector<Tracer::Span> &Spans) {
  double RootUs = 0, LayerUs = 0;
  for (const Tracer::Span &S : Spans) {
    if (S.Parent < 0) {
      RootUs += S.EndUs - S.StartUs;
      continue;
    }
    if (!isLayerSpan(S.Name))
      continue;
    bool Outermost = true;
    for (int P = S.Parent; P >= 0 && Outermost; P = Spans[P].Parent)
      Outermost = !isLayerSpan(Spans[P].Name);
    if (Outermost)
      LayerUs += S.EndUs - S.StartUs;
  }
  return RootUs > 0 ? LayerUs / RootUs : 0;
}

/// Every per-layer metric, from the spans (times) and counts.
std::vector<std::pair<std::string, double>>
layerMetrics(const Tracer &T, Counts C) {
  auto Sum = [&](const std::string &N) { return total(T.durationsMs(N)); };
  auto Med = [&](const std::string &N) { return median(T.durationsMs(N)); };
  std::vector<std::pair<std::string, double>> M;
  M.emplace_back("frontend.lex_ms", Sum("frontend.lex"));
  M.emplace_back("frontend.tokens", C["frontend.tokens"]);
  M.emplace_back("frontend.parse_ms", Sum("frontend.parse"));
  M.emplace_back("frontend.input_mb", C["frontend.input_mb"]);
  M.emplace_back("ir.verify_ms", Sum("ir.verify"));
  M.emplace_back("ir.stmts", C["ir.stmts"]);
  M.emplace_back("zipper.pre_ms", Sum("zipper.pre"));
  M.emplace_back("zipper.selected_methods", C["zipper.selected_methods"]);
  for (const char *K : {"pts_insertions", "pfg_edges", "worklist_pops",
                        "scc_members", "set_elems", "distinct_sets"})
    for (const std::string &S : AllSpecs)
      M.emplace_back(std::string("pta.") + K + "." + S,
                     C[std::string("pta.") + K + "." + S]);
  for (const std::string &S : AllSpecs)
    M.emplace_back("pta.solve_ms." + S, Sum("pta.solve." + S));
  for (const char *K : {"cut_stores", "cut_returns", "shortcut_edges"})
    M.emplace_back(std::string("csc.") + K, C[std::string("csc.") + K]);
  for (const std::string &S : AllSpecs)
    M.emplace_back("client.metrics_ms." + S, Sum("client.metrics." + S));
  M.emplace_back("client.report_ms", Sum("client.report"));
  M.emplace_back("client.report_kb", C["client.report_kb"]);
  M.emplace_back("client.batch_busy_frac",
                 C["client.batch_slot_ms"] > 0
                     ? C["client.batch_busy_ms"] / C["client.batch_slot_ms"]
                     : 0);
  M.emplace_back("client.cache_hits", C["client.cache_hits"]);
  M.emplace_back("client.cache_misses", C["client.cache_misses"]);
  for (const char *K : {"encode", "publish", "lookup", "decode"})
    for (const std::string &S : AllSpecs)
      M.emplace_back(std::string("store.") + K + "_ms." + S,
                     Sum(std::string("store.") + K + "." + S));
  for (const std::string &S : AllSpecs)
    M.emplace_back("store.entry_mb." + S, C["store.entry_mb." + S]);
  for (const char *K : {"hits", "misses", "publish_failures"})
    M.emplace_back(std::string("store.") + K, C[std::string("store.") + K]);
  M.emplace_back("server.load_ms", Med("server.load"));
  for (const char *K : {"demand", "resident", "fallback"})
    M.emplace_back(std::string("server.query_ms.") + K,
                   Med(std::string("server.query.") + K));
  M.emplace_back("server.delta_ms", Med("server.delta"));
  for (const char *K :
       {"slice_stmts", "demand_solves", "warm_resumes", "full_solves"})
    M.emplace_back(std::string("server.") + K, C[std::string("server.") + K]);
  return M;
}

int cmdTrace(const std::string &Workload, const std::string &Dir,
             const std::string &TracePath) {
  Inputs In;
  if (!loadInputs(Workload, Dir, In))
    return 1;
  using Fn = void (*)(Replay &, const Inputs &);
  Fn Op = Workload == "solve-xxl"     ? opSolve
          : Workload == "batch-store" ? opBatch
                                      : opServe;
  Fn Probes = Workload == "solve-xxl"     ? probesSolve
              : Workload == "batch-store" ? probesBatch
                                          : probesServe;
  std::string Scratch = Dir + "/trace-scratch";
  fs::create_directories(Scratch);

  // The op untraced, then traced, on the same inputs: the difference is
  // what recording spans costs. Probes run traced only, after the op or
  // (store round trips of solve-xxl) inside it under probe.* spans, which
  // the traced op time excludes.
  Tracer Off(false);
  Counts Unused;
  Replay Plain{Off, Unused, Scratch};
  auto Start = std::chrono::steady_clock::now();
  Op(Plain, In);
  double PlainMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  Tracer T(true);
  Counts C;
  Replay Traced{T, C, Scratch};
  Traced.StoreProbe = Workload == "solve-xxl";
  T.setOp(1);
  int Root = T.begin("op." + Workload);
  Op(Traced, In);
  T.end(Root);
  double TracedMs = (T.spans()[Root].EndUs - T.spans()[Root].StartUs) / 1000;
  for (const Tracer::Span &S : T.spans())
    if (S.Parent == Root && S.Name.rfind("probe.", 0) == 0)
      TracedMs -= (S.EndUs - S.StartUs) / 1000;
  T.setOp(2);
  int ProbeRoot = T.begin("probe." + Workload);
  Probes(Traced, In);
  T.end(ProbeRoot);
  fs::remove_all(Scratch);

  std::vector<std::pair<std::string, double>> M = layerMetrics(T, C);
  M.emplace_back("trace.coverage", coverage(T.spans()));
  M.emplace_back("trace.overhead_frac", (TracedMs - PlainMs) / PlainMs);

  if (!T.writeChrome(TracePath)) {
    std::fprintf(stderr, "benchtool: cannot write '%s'\n", TracePath.c_str());
    return 1;
  }
  // The per-layer table: self time and span count per layer and span.
  std::map<std::string, std::pair<double, unsigned>> Layers;
  std::printf("%-34s %12s %8s\n", "span", "self_ms", "count");
  for (const auto &[Name, SelfN] : selfTimes(T.spans())) {
    std::printf("%-34s %12.3f %8u\n", Name.c_str(), SelfN.first,
                SelfN.second);
    auto &L = Layers[Name.substr(0, Name.find('.'))];
    L.first += SelfN.first;
    L.second += SelfN.second;
  }
  std::printf("%-34s %12s %8s\n", "layer", "self_ms", "spans");
  for (const auto &[Name, SelfN] : Layers)
    std::printf("%-34s %12.3f %8u\n", Name.c_str(), SelfN.first,
                SelfN.second);
  std::printf("untraced op %.3f ms, traced op %.3f ms\n", PlainMs, TracedMs);

  JsonWriter J;
  J.beginObject()
      .kv("failed", (Plain.Failures > 0) + (Traced.Failures > 0))
      .kv("ops", 2);
  J.key("metrics").beginObject();
  for (const auto &[Name, V] : M)
    J.kv(Name, V);
  J.endObject().endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> A(Argv + 1, Argv + Argc);
  try {
    if (A.size() == 4 && A[0] == "gen")
      return cmdGen(A[1], std::stoull(A[2]), A[3]);
    if (A.size() >= 4 && A[0] == "facts")
      return cmdFacts(std::stoull(A[1]), std::stoull(A[2]),
                      std::vector<std::string>(A.begin() + 3, A.end()));
    if (A.size() == 2 && A[0] == "catalog")
      return cmdCatalog(A[1]);
    if (A.size() == 1 && A[0] == "calibrate")
      return cmdCalibrate();
    if (A.size() == 4 && A[0] == "trace")
      return cmdTrace(A[1], A[2], A[3]);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "benchtool: %s\n", E.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: benchtool gen <tier> <seed> <out.jir>\n"
               "       benchtool facts <seed> <max-vars> <file.jir>...\n"
               "       benchtool catalog <file.jir>\n"
               "       benchtool calibrate\n"
               "       benchtool trace <workload> <inputs-dir> <trace.json>\n");
  return 2;
}
