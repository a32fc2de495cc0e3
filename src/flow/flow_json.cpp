#include "flow/flow_json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <type_traits>
#include <utility>

#include "lp/model.h"

namespace lamp::flow {

using util::Json;

namespace {

/// PhaseSeconds fields under their wire keys, in serialization order.
constexpr std::pair<const char*, double PhaseSeconds::*> kPhaseKeys[] = {
    {"analyze", &PhaseSeconds::analyze},
    {"dataflow", &PhaseSeconds::dataflow},
    {"simplify", &PhaseSeconds::simplify},
    {"cutEnum", &PhaseSeconds::cutEnum},
    {"milpBuild", &PhaseSeconds::milpBuild},
    {"milpSolve", &PhaseSeconds::milpSolve},
    {"validate", &PhaseSeconds::validate},
    {"verify", &PhaseSeconds::verify},
};

bool parseStatus(std::string_view name, lp::SolveStatus& out) {
  for (const lp::SolveStatus s :
       {lp::SolveStatus::Optimal, lp::SolveStatus::Feasible,
        lp::SolveStatus::Infeasible, lp::SolveStatus::Unbounded,
        lp::SolveStatus::NoSolution, lp::SolveStatus::Cutoff,
        lp::SolveStatus::Error}) {
    if (lp::solveStatusName(s) == name) {
      out = s;
      return true;
    }
  }
  return false;
}

Json intArray(const std::vector<int>& v) {
  Json a = Json::array();
  for (const int x : v) a.push(Json::integer(x));
  return a;
}

Json doubleArray(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push(Json::number(x));
  return a;
}

bool readIntArray(const Json* j, std::vector<int>& out) {
  if (j == nullptr || !j->isArray()) return false;
  out.clear();
  out.reserve(j->size());
  for (std::size_t i = 0; i < j->size(); ++i) {
    if (!j->at(i).isNumber()) return false;
    out.push_back(static_cast<int>(j->at(i).asInt()));
  }
  return true;
}

bool readDoubleArray(const Json* j, std::vector<double>& out) {
  if (j == nullptr || !j->isArray()) return false;
  out.clear();
  out.reserve(j->size());
  for (std::size_t i = 0; i < j->size(); ++i) {
    if (!j->at(i).isNumber()) return false;
    out.push_back(j->at(i).asDouble());
  }
  return true;
}

/// Shortest-round-trip double text for cache keys.
std::string numKey(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

Json resultToJson(const FlowResult& r) {
  Json j = Json::object();
  j.set("success", Json::boolean(r.success));
  j.set("error", Json::string(r.error));
  j.set("method", Json::string(std::string(methodToken(r.method))));
  j.set("functionallyVerified", Json::boolean(r.functionallyVerified));

  Json sched = Json::object();
  sched.set("ii", Json::integer(r.schedule.ii));
  sched.set("tcpNs", Json::number(r.schedule.tcpNs));
  sched.set("cycle", intArray(r.schedule.cycle));
  sched.set("startNs", doubleArray(r.schedule.startNs));
  sched.set("selectedCut", intArray(r.schedule.selectedCut));
  j.set("schedule", std::move(sched));

  Json area = Json::object();
  area.set("luts", Json::integer(r.area.luts));
  area.set("ffs", Json::integer(r.area.ffs));
  area.set("cpNs", Json::number(r.area.cpNs));
  area.set("latency", Json::integer(r.area.latency));
  area.set("stages", Json::integer(r.area.stages));
  area.set("materializedValues", Json::integer(r.area.materializedValues));
  area.set("lutsPerStage", intArray(r.area.lutsPerStage));
  area.set("cpPerStage", doubleArray(r.area.cpPerStage));
  area.set("warning", Json::string(r.area.warning));
  j.set("area", std::move(area));

  Json solver = Json::object();
  solver.set("status",
             Json::string(std::string(lp::solveStatusName(r.status))));
  solver.set("objective", Json::number(r.objective));
  solver.set("branchNodes", Json::integer(r.branchNodes));
  solver.set("numVars", Json::integer(static_cast<std::int64_t>(r.numVars)));
  solver.set("numConstraints",
             Json::integer(static_cast<std::int64_t>(r.numConstraints)));
  solver.set("numCuts", Json::integer(static_cast<std::int64_t>(r.numCuts)));
  solver.set("cutStrategy",
             Json::string(std::string(cut::cutStrategyName(r.cutStrategy))));
  // Per-phase wall seconds. Rides every serialized result, so cached
  // daemon hits replay the original run's telemetry bit-identically.
  Json phases = Json::object();
  for (const auto& [key, field] : kPhaseKeys) {
    phases.set(key, Json::number(r.phases.*field));
  }
  solver.set("phaseSeconds", std::move(phases));
  // Bounded B&B convergence telemetry (absent when the solve produced
  // none — the heuristic arm and pre-telemetry cache records).
  if (!r.convergence.empty()) {
    Json conv = Json::array();
    for (const lp::ConvergenceEvent& e : r.convergence) {
      Json ev = Json::object();
      ev.set("t", Json::number(e.tSeconds));
      ev.set("kind", Json::string(e.kind));
      ev.set("value", Json::number(e.value));
      if (e.aux != 0.0) ev.set("aux", Json::number(e.aux));
      if (e.worker >= 0) ev.set("worker", Json::integer(e.worker));
      conv.push(std::move(ev));
    }
    solver.set("convergence", std::move(conv));
    if (r.convergenceDropped > 0) {
      solver.set("convergenceDropped", Json::integer(r.convergenceDropped));
    }
  }
  j.set("solver", std::move(solver));
  j.set("diagnostics", analyze::diagnosticsToJson(r.diagnostics));
  // Optional fields: absent unless the corresponding flow option ran.
  if (r.certificate.ran) {
    Json cert = Json::object();
    cert.set("verified", Json::boolean(r.certificate.verified));
    cert.set("status", Json::string(r.certificate.status));
    if (!r.certificate.detail.empty()) {
      cert.set("detail", Json::string(r.certificate.detail));
    }
    cert.set("claim", Json::string(r.certificate.claim));
    cert.set("treeNodes", Json::integer(r.certificate.treeNodes));
    cert.set("checkerMillis", Json::integer(r.certificate.checkerMillis));
    // The full lampproof text rides along so service clients (and the
    // daemon cache) can re-check it offline with lamp-certify.
    cert.set("proof", Json::string(r.certificate.proof));
    j.set("certificate", std::move(cert));
  }
  if (!r.analysis.empty()) {
    j.set("analysis", analyze::dataflowToJson(r.analysis));
  }
  if (!r.simplifyMap.empty()) {
    Json m = Json::array();
    for (const ir::NodeId id : r.simplifyMap) {
      m.push(Json::integer(id == ir::kNoNode ? -1
                                             : static_cast<std::int64_t>(id)));
    }
    j.set("simplifyMap", std::move(m));
  }
  return j;
}

bool resultFromJson(const Json& j, FlowResult& out, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (!j.isObject()) return fail("result is not an object");
  out = FlowResult{};

  const Json* v = j.find("success");
  if (v == nullptr || !v->isBool()) return fail("missing success");
  out.success = v->asBool();
  if ((v = j.find("error")) != nullptr) out.error = v->asString();
  if ((v = j.find("method")) == nullptr ||
      !parseMethodToken(v->asString(), out.method)) {
    return fail("bad method");
  }
  if ((v = j.find("functionallyVerified")) != nullptr) {
    out.functionallyVerified = v->asBool();
  }

  const Json* sched = j.find("schedule");
  if (sched == nullptr || !sched->isObject()) return fail("missing schedule");
  out.schedule.ii = static_cast<int>(
      sched->find("ii") ? sched->find("ii")->asInt(1) : 1);
  out.schedule.tcpNs =
      sched->find("tcpNs") ? sched->find("tcpNs")->asDouble(10.0) : 10.0;
  if (!readIntArray(sched->find("cycle"), out.schedule.cycle) ||
      !readDoubleArray(sched->find("startNs"), out.schedule.startNs) ||
      !readIntArray(sched->find("selectedCut"), out.schedule.selectedCut)) {
    return fail("bad schedule arrays");
  }
  if (out.schedule.startNs.size() != out.schedule.cycle.size() ||
      out.schedule.selectedCut.size() != out.schedule.cycle.size()) {
    return fail("schedule arrays of unequal length");
  }

  const Json* area = j.find("area");
  if (area != nullptr && area->isObject()) {
    const auto num = [&](const char* key, double fallback) {
      const Json* f = area->find(key);
      return f ? f->asDouble(fallback) : fallback;
    };
    out.area.luts = static_cast<int>(num("luts", 0));
    out.area.ffs = static_cast<int>(num("ffs", 0));
    out.area.cpNs = num("cpNs", 0.0);
    out.area.latency = static_cast<int>(num("latency", 0));
    out.area.stages = static_cast<int>(num("stages", 0));
    out.area.materializedValues = static_cast<int>(num("materializedValues", 0));
    (void)readIntArray(area->find("lutsPerStage"), out.area.lutsPerStage);
    (void)readDoubleArray(area->find("cpPerStage"), out.area.cpPerStage);
    if (const Json* w = area->find("warning")) out.area.warning = w->asString();
  }

  const Json* solver = j.find("solver");
  if (solver != nullptr && solver->isObject()) {
    if (const Json* s = solver->find("status")) {
      if (!parseStatus(s->asString(), out.status)) return fail("bad status");
    }
    const auto num = [&](const char* key, double fallback) {
      const Json* f = solver->find(key);
      return f ? f->asDouble(fallback) : fallback;
    };
    out.objective = num("objective", 0.0);
    const Json* bn = solver->find("branchNodes");
    out.branchNodes = bn ? bn->asInt(0) : 0;
    const Json* nv = solver->find("numVars");
    out.numVars = nv ? static_cast<std::size_t>(nv->asInt(0)) : 0;
    const Json* nc = solver->find("numConstraints");
    out.numConstraints = nc ? static_cast<std::size_t>(nc->asInt(0)) : 0;
    const Json* nk = solver->find("numCuts");
    out.numCuts = nk ? static_cast<std::size_t>(nk->asInt(0)) : 0;
    // Absent in results cached before cut strategies existed; those ran
    // the historical DepthAware ranking, which is the field's default.
    if (const Json* cs = solver->find("cutStrategy")) {
      if (!cut::parseCutStrategy(cs->asString(), out.cutStrategy)) {
        return fail("bad cutStrategy");
      }
    }
    // Absent in results cached before the phase breakdown existed.
    if (const Json* ph = solver->find("phaseSeconds");
        ph != nullptr && ph->isObject()) {
      for (const auto& [key, field] : kPhaseKeys) {
        const Json* f = ph->find(key);
        out.phases.*field = f ? f->asDouble(0.0) : 0.0;
      }
    }
    // Absent in results cached before convergence telemetry existed.
    if (const Json* conv = solver->find("convergence");
        conv != nullptr && conv->isArray()) {
      out.convergence.reserve(conv->size());
      for (std::size_t i = 0; i < conv->size(); ++i) {
        const Json& ev = conv->at(i);
        if (!ev.isObject()) return fail("bad convergence entry");
        lp::ConvergenceEvent e;
        if (const Json* f = ev.find("t")) e.tSeconds = f->asDouble(0.0);
        if (const Json* f = ev.find("kind")) e.kind = f->asString();
        if (const Json* f = ev.find("value")) e.value = f->asDouble(0.0);
        if (const Json* f = ev.find("aux")) e.aux = f->asDouble(0.0);
        if (const Json* f = ev.find("worker")) {
          e.worker = static_cast<int>(f->asInt(-1));
        }
        out.convergence.push_back(std::move(e));
      }
    }
    if (const Json* cd = solver->find("convergenceDropped")) {
      out.convergenceDropped = cd->asInt(0);
    }
  }
  // Absent in results cached before diagnostics existed — tolerated so
  // old solution-cache files keep loading (they round-trip without it).
  if (const Json* diags = j.find("diagnostics")) {
    if (!analyze::diagnosticsFromJson(*diags, out.diagnostics, error)) {
      return false;
    }
  }
  if (const Json* an = j.find("analysis")) {
    if (!analyze::dataflowFromJson(*an, out.analysis, error)) return false;
  }
  // Absent unless the run certified (and in every record cached before
  // certification existed).
  if (const Json* cert = j.find("certificate");
      cert != nullptr && cert->isObject()) {
    out.certificate.ran = true;
    if (const Json* f = cert->find("verified")) {
      out.certificate.verified = f->asBool();
    }
    if (const Json* f = cert->find("status")) {
      out.certificate.status = f->asString();
    }
    if (const Json* f = cert->find("detail")) {
      out.certificate.detail = f->asString();
    }
    if (const Json* f = cert->find("claim")) {
      out.certificate.claim = f->asString();
    }
    if (const Json* f = cert->find("treeNodes")) {
      out.certificate.treeNodes = f->asInt(0);
    }
    if (const Json* f = cert->find("checkerMillis")) {
      out.certificate.checkerMillis = f->asInt(0);
    }
    if (const Json* f = cert->find("proof")) {
      out.certificate.proof = f->asString();
    }
  }
  if (const Json* sm = j.find("simplifyMap")) {
    if (!sm->isArray()) return fail("simplifyMap is not an array");
    out.simplifyMap.clear();
    out.simplifyMap.reserve(sm->size());
    for (std::size_t i = 0; i < sm->size(); ++i) {
      if (!sm->at(i).isNumber()) return fail("bad simplifyMap entry");
      const std::int64_t id = sm->at(i).asInt();
      out.simplifyMap.push_back(id < 0 ? ir::kNoNode
                                       : static_cast<ir::NodeId>(id));
    }
    // The rewritten graph itself is not serialized: ir::simplify is
    // deterministic, so holders of the input graph can reproduce it.
  }
  return true;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using StrategyField = cut::CutStrategy cut::CutEnumOptions::*;

// key, CLI flag, field, min, max, read by analysisOptions()
constexpr FlowOption kFlowOptions[] = {
    {"ii", "ii", &FlowOptions::ii, 1, kInf, true},
    {"tcpNs", "tcp", &FlowOptions::tcpNs, -kInf, kInf, true},
    {"alpha", "alpha", &FlowOptions::alpha},
    {"beta", "beta", &FlowOptions::beta},
    {"timeLimitSeconds", "time-limit", &FlowOptions::solverTimeLimitSeconds},
    {"latencyMargin", "", &FlowOptions::latencyMargin, 0},
    {"k", "k", &cut::CutEnumOptions::k, 2, 8, true},
    {"cutStrategy", "cut-strategy", &cut::CutEnumOptions::strategy},
    {"raceCutStrategies", "race-strategies", &FlowOptions::raceCutStrategies},
    {"cutThreads", "cut-threads", &cut::CutEnumOptions::threads, 0, 64},
    {"verifyFrames", "", &FlowOptions::verifyFrames, 0},
    {"verifySeed", "", &FlowOptions::verifySeed},
    {"solverThreads", "threads", &FlowOptions::solverThreads, 0, 64},
    {"simplify", "simplify", &FlowOptions::simplify},
    {"emitAnalysis", "emit-analysis", &FlowOptions::emitAnalysis},
    {"certify", "certify", &FlowOptions::certify},
    {"schedSpace", "no-schedspace", &FlowOptions::schedSpace, 0, 1, true},
    {"analyzeBudgetMs", "analyze-budget-ms", &FlowOptions::analyzeBudgetMs, 0,
     kInf, true},
};

/// Calls `fn` with an accessor of the field `opt` names: `get(o)` is
/// that field of the FlowOptions `o`, const or not.
template <typename Fn>
void withField(const FlowOption& opt, Fn&& fn) {
  std::visit(
      [&](auto member) {
        fn([member](auto& o) -> auto& {
          if constexpr (std::is_invocable_v<decltype(member), decltype(o)>) {
            return o.*member;
          } else {
            return o.cuts.*member;
          }
        });
      },
      opt.field);
}

std::optional<std::string> checkNumber(std::string_view key, double v,
                                       NumberRule rule) {
  const std::string name(key);
  if (!std::isfinite(v)) return name + " must be finite";
  if (rule.integer && v != std::trunc(v)) return name + " must be an integer";
  if (v >= rule.min && v <= rule.max) return std::nullopt;
  if (rule.max == kInf) return name + " must be >= " + numKey(rule.min);
  return name + " out of range [" + numKey(rule.min) + "," +
         numKey(rule.max) + "]";
}

/// Sets the field `opt` names from `v`: the one path every option value
/// takes, from a request or (as the JSON a request would carry) a flag.
std::optional<std::string> readOption(const FlowOption& opt, const Json& v,
                                      FlowOptions& o) {
  std::optional<std::string> bad;
  withField(opt, [&](auto get) {
    auto& field = get(o);
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, cut::CutStrategy>) {
      if (!cut::parseCutStrategy(v.asString(), field)) {
        bad = "unknown " + std::string(opt.key) + " '" + v.asString() +
              "' (want depth|area|support|balanced)";
      }
    } else {
      // A switch is a JSON boolean or an integer in [0,1].
      constexpr bool kSwitch = std::is_same_v<T, bool>;
      const NumberRule rule =
          kSwitch ? NumberRule{0, 1, true}
                  : NumberRule{opt.min, opt.max, std::is_integral_v<T>};
      // The rule's range within what the field's type holds.
      const NumberRule type{
          std::max(opt.min,
                   static_cast<double>(std::numeric_limits<T>::lowest())),
          std::min(opt.max,
                   static_cast<double>(std::numeric_limits<T>::max()))};
      double x = v.asBool();
      if (!kSwitch || !v.isBool()) bad = readNumber(opt.key, v, rule, x);
      if (!bad) bad = checkNumber(opt.key, x, type);
      if (!bad) field = static_cast<T>(x);
    }
  });
  return bad;
}

void addFlags(util::ArgParser& cli, FlowOptions& o, bool analysisOnly,
              std::optional<std::string>* analysisFile) {
  for (const FlowOption& opt : kFlowOptions) {
    if (opt.flag.empty() || (analysisOnly && !opt.analysis)) continue;
    const auto* sw = std::get_if<bool FlowOptions::*>(&opt.field);
    const bool file = sw && analysisFile && *sw == &FlowOptions::emitAnalysis;
    const auto how = file ? util::FlagValue::Optional
                     : sw ? util::FlagValue::None
                          : util::FlagValue::Required;
    cli.add(opt.flag, how,
            [&o, &opt, sw, file, analysisFile](std::string_view text,
                                               std::string& err) {
              // The flag's text as the JSON value a request carries.
              std::optional<Json> v;
              double x = 0.0;
              if (sw) {
                if (file) *analysisFile = std::string(text);
                v = Json::boolean(!opt.flag.starts_with("no-"));
              } else if (std::holds_alternative<StrategyField>(opt.field)) {
                v = Json::string(std::string(text));
              } else if (util::parseValue(text, x)) {
                v = Json::parse(text);  // a number; 1e999 stays infinite
              }
              if (!v) return false;
              if (auto bad = readOption(opt, *v, o)) err = *bad;
              return err.empty();
            });
  }
}

}  // namespace

std::span<const FlowOption> flowOptions() { return kFlowOptions; }

std::optional<std::string> readNumber(std::string_view key, const Json& v,
                                      NumberRule rule, double& out) {
  if (!v.isNumber()) return std::string(key) + " must be a number";
  const double x = v.asDouble();
  if (auto bad = checkNumber(key, x, rule)) return bad;
  out = x;
  return std::nullopt;
}

bool optionsFromJson(const Json& j, FlowOptions& out, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (j.isNull()) return true;  // absent options object = all defaults
  if (!j.isObject()) return fail("options is not an object");
  for (const auto& [key, value] : j.members()) {
    const auto opt = std::find_if(
        std::begin(kFlowOptions), std::end(kFlowOptions),
        [&key = key](const FlowOption& o) { return o.key == key; });
    if (opt == std::end(kFlowOptions)) {
      return fail("unknown option '" + key + "'");
    }
    if (auto bad = readOption(*opt, value, out)) return fail(*bad);
  }
  if (const auto bad = optionsError(out)) return fail(*bad);
  return true;
}

Json optionsToJson(const FlowOptions& o) {
  const FlowOptions defaults;
  Json j = Json::object();
  for (const FlowOption& opt : kFlowOptions) {
    withField(opt, [&](auto get) {
      const auto& field = get(o);
      using T = std::decay_t<decltype(field)>;
      if (field == get(defaults)) return;
      if constexpr (std::is_same_v<T, cut::CutStrategy>) {
        j.set(std::string(opt.key),
              Json::string(std::string(cut::cutStrategyName(field))));
      } else if constexpr (std::is_same_v<T, bool>) {
        j.set(std::string(opt.key), Json::boolean(field));
      } else {
        j.set(std::string(opt.key), Json::number(field));
      }
    });
  }
  return j;
}

void addFlowFlags(util::ArgParser& cli, FlowOptions& o,
                  std::optional<std::string>* analysisFile) {
  addFlags(cli, o, false, analysisFile);
}

void addAnalysisFlags(util::ArgParser& cli, FlowOptions& o) {
  addFlags(cli, o, true, nullptr);
}

std::optional<std::string> optionsError(const FlowOptions& o) {
  if (o.ii < 1) return "ii must be >= 1";
  if (o.tcpNs <= 0) return "tcpNs must be positive";
  if (o.cuts.k < 2 || o.cuts.k > 8) return "k out of range [2,8]";
  return std::nullopt;
}

std::string hardOptionKey(Method m, const FlowOptions& o) {
  // v2: simplify/emitAnalysis joined the key — a schedule solved over
  // the rewritten graph must never warm-start (or answer) a request for
  // the original one, and vice versa.
  // v3: cut strategy and strategy racing joined — both change which cuts
  // survive the priority cap and hence the MILP's selection space.
  // cuts.threads stays out: enumeration is bit-identical at every
  // thread count.
  // v4: certify joined — a certifying run forces a deterministic serial
  // solve and carries a certificate, so it must not answer (or be
  // answered by) an uncertified request's cache record.
  // v5: schedule-space analysis joined — it changes the formulation
  // (variables never created, symmetry rows), and the probing budget
  // changes how much of it is applied, so both key the bucket.
  std::string key = "v5;m=";
  key += methodToken(m);
  key += ";ii=" + std::to_string(o.ii);
  key += ";a=" + numKey(o.alpha);
  key += ";b=" + numKey(o.beta);
  key += ";k=" + std::to_string(o.cuts.k);
  key += ";cs=";
  key += cut::cutStrategyName(o.cuts.strategy);
  key += ";rs=" + std::to_string(o.raceCutStrategies ? 1 : 0);
  key += ";lm=" + std::to_string(o.latencyMargin);
  key += ";vf=" + std::to_string(o.verifyFrames);
  key += ";vs=" + std::to_string(o.verifySeed);
  key += ";sp=" + std::to_string(o.simplify ? 1 : 0);
  key += ";ea=" + std::to_string(o.emitAnalysis ? 1 : 0);
  key += ";ce=" + std::to_string(o.certify ? 1 : 0);
  key += ";ss=" + std::to_string(o.schedSpace ? 1 : 0);
  key += ";ab=" + std::to_string(o.schedSpace ? o.analyzeBudgetMs : 0);
  return key;
}

}  // namespace lamp::flow
