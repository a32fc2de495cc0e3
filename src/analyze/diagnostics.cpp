#include "analyze/diagnostics.h"

#include <array>
#include <sstream>

namespace lamp::analyze {

std::string_view severityName(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

bool parseSeverity(std::string_view name, Severity& out) {
  if (name == "info") { out = Severity::Info; return true; }
  if (name == "warning") { out = Severity::Warning; return true; }
  if (name == "error") { out = Severity::Error; return true; }
  return false;
}

namespace {

constexpr std::array<CodeInfo, 20> kCodeCatalog = {{
    {"LAMP001", "clock-infeasible node",
     "A node's indivisible fabric delay (one LUT level or a carry chain) "
     "exceeds the target clock period, so the cycle-time constraint "
     "(Eq. 8) has no solution at any II or latency. Black boxes are "
     "exempt: their multi-cycle latency is modeled separately.",
     "raise tcpNs or narrow the offending arithmetic"},
    {"LAMP002", "recurrence-bound minimum II above the request",
     "Summing the dependence constraint (Eq. 7) around a loop-carried "
     "cycle gives II >= ceil(sum latency / sum distance). The binding "
     "cycle's bound exceeds the requested II; it is an Error when it "
     "also exceeds the retry window's largest II.",
     "request a larger II or break the recurrence"},
    {"LAMP003", "resource-bound minimum II above the request",
     "A resource class has more operations than limit * II modulo slots "
     "(Eq. 14's pigeonhole), so resMII = ceil(#ops / limit) exceeds the "
     "requested II.",
     "request a larger II or add resource instances"},
    {"LAMP004", "cone that can never be K-feasible",
     "An output bit depends on more unabsorbable bits (inputs, black "
     "boxes, loop-carried operands) than a K-input cut can cover, so the "
     "mapping-aware cut cover (Eq. 4) is unsatisfiable for it.",
     "raise K or restructure the logic feeding the cone"},
    {"LAMP005", "dead node",
     "The node is unreachable from any Output or Store, so it constrains "
     "the schedule without affecting observable behavior.",
     "remove dead code in the front-end"},
    {"LAMP006", "unused input",
     "A primary input has no consumers.",
     "drop the input or wire it up"},
    {"LAMP007", "structural violation",
     "ir::verifyAll found a malformed graph (bad operand ids, width "
     "mismatches, wrong arity). All later analyses are skipped because "
     "their preconditions do not hold.",
     "fix the CDFG construction; see ir::verifyAll"},
    {"LAMP008", "constant-foldable island",
     "A connected region computes a compile-time constant the front-end "
     "should have folded.",
     "run ir::simplify (lampc --simplify, FlowOptions::simplify) or fold "
     "in the front-end"},
    {"LAMP009", "no observable sinks",
     "The graph has no Output or Store node; nothing is observable and "
     "the whole graph is dead code.",
     "add outputs"},
    {"LAMP010", "dead output bits",
     "High bits of a sink are provably zero for every input (known-bits "
     "fixpoint), so the sink is wider than the value it observes.",
     "narrow the output"},
    {"LAMP011", "truncation drops known-set bits",
     "A slice/width change provably discards bits that are set on some "
     "execution (range analysis), which usually indicates an overflow "
     "bug rather than an intended wrap.",
     "widen the destination or mask explicitly"},
    {"LAMP012", "comparison with a proven constant result",
     "Operand ranges/bits prove the comparison's result before any input "
     "arrives.",
     "replace the comparison with a constant (or enable "
     "FlowOptions::simplify to fold it)"},
    {"LAMP013", "unreachable mux arm",
     "The mux select is proven constant, so one data arm can never be "
     "chosen.",
     "drop the dead arm (or enable FlowOptions::simplify to forward the "
     "live one)"},
    {"LAMP014", "uncertified claim",
     "Certification was requested but the solver's claim is one the "
     "proof format cannot certify (e.g. a time-limited 'feasible'), or "
     "no proof was produced. The float result may still be correct; it "
     "is just not machine-checked.",
     "re-run with a longer solver time limit"},
    {"LAMP015", "certificate rejected",
     "The exact-arithmetic checker could not replay a dual-bound, "
     "branching, or tree-cover derivation of the solver's proof log. The "
     "solver result must not be trusted.",
     "report the proof log; fall back to an uncertified run"},
    {"LAMP016", "certified incumbent infeasible",
     "The exact-arithmetic checker found the solver's claimed solution "
     "violates a model constraint.",
     "report the proof log; fall back to an uncertified run"},
    {"LAMP017", "zero-mobility operation on the binding recurrence cycle",
     "After schedule-space tightening (ASAP/ALAP intersected with "
     "chaining-aware longest paths), an operation on the binding "
     "recurrence cycle has a single legal start cycle. The MILP has no "
     "freedom left for it; such ops pin the schedule and make nearby "
     "windows worth probing first.",
     "advisory: no action needed; a larger II or faster clock would "
     "restore slack"},
    {"LAMP018", "implication probing proved the II infeasible",
     "Fixing each candidate start cycle to 1 and re-propagating the "
     "difference constraints left some operation with no start cycle "
     "that survives, or forced more same-class operations into a modulo "
     "slot than the resource limit admits (the conflicting clique is "
     "listed). It is an Error when the conflict persists at the retry "
     "window's largest II.",
     "request a larger II, relax resource limits, or loosen the clock"},
    {"LAMP019", "symmetry orbit report",
     "Interchangeable operations (verified swap-automorphisms: same "
     "kind/width/operands and symmetric consumers) form orbits whose "
     "members can permute their start cycles in any feasible schedule "
     "without changing feasibility or cost. Lexicographic ordering rows "
     "are added to the MILP so the solver explores one representative "
     "per orbit.",
     "advisory: symmetry breaking is automatic when schedule-space "
     "analysis is on"},
    {"LAMP020", "empty mobility window",
     "Chaining-tightened ASAP exceeds ALAP for some operation at this "
     "II/latency bound: intra-cycle delay accumulation needs more "
     "cycles than the dependence distances give back. It is an Error "
     "when the window is still empty at the retry window's largest II.",
     "request a larger II or loosen the clock target"},
}};

}  // namespace

std::span<const CodeInfo> codeCatalog() { return kCodeCatalog; }

const CodeInfo* findCode(std::string_view code) {
  for (const CodeInfo& info : kCodeCatalog) {
    if (info.code == code) return &info;
  }
  return nullptr;
}

util::Json diagnosticToJson(const Diagnostic& d) {
  util::Json j = util::Json::object();
  j.set("code", util::Json::string(d.code));
  j.set("severity", util::Json::string(std::string(severityName(d.severity))));
  j.set("message", util::Json::string(d.message));
  util::Json nodes = util::Json::array();
  for (ir::NodeId id : d.nodes) {
    nodes.push(util::Json::integer(static_cast<std::int64_t>(id)));
  }
  j.set("nodes", std::move(nodes));
  if (!d.hint.empty()) j.set("hint", util::Json::string(d.hint));
  return j;
}

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

}  // namespace

bool diagnosticFromJson(const util::Json& j, Diagnostic& out,
                        std::string* error) {
  if (!j.isObject()) return fail(error, "diagnostic must be an object");
  const util::Json* code = j.find("code");
  if (!code || !code->isString() || code->asString().empty()) {
    return fail(error, "diagnostic.code must be a non-empty string");
  }
  const util::Json* sev = j.find("severity");
  Severity severity = Severity::Error;
  if (!sev || !sev->isString() || !parseSeverity(sev->asString(), severity)) {
    return fail(error, "diagnostic.severity must be info|warning|error");
  }
  const util::Json* msg = j.find("message");
  if (!msg || !msg->isString()) {
    return fail(error, "diagnostic.message must be a string");
  }
  out = Diagnostic{};
  out.code = code->asString();
  out.severity = severity;
  out.message = msg->asString();
  if (const util::Json* nodes = j.find("nodes")) {
    if (!nodes->isArray()) return fail(error, "diagnostic.nodes must be an array");
    for (std::size_t i = 0; i < nodes->size(); ++i) {
      const util::Json& id = nodes->at(i);
      if (!id.isNumber() || id.asInt(-1) < 0) {
        return fail(error, "diagnostic.nodes entries must be node ids");
      }
      out.nodes.push_back(static_cast<ir::NodeId>(id.asInt()));
    }
  }
  if (const util::Json* hint = j.find("hint")) {
    if (!hint->isString()) return fail(error, "diagnostic.hint must be a string");
    out.hint = hint->asString();
  }
  return true;
}

util::Json diagnosticsToJson(const std::vector<Diagnostic>& ds) {
  util::Json arr = util::Json::array();
  for (const Diagnostic& d : ds) arr.push(diagnosticToJson(d));
  return arr;
}

bool diagnosticsFromJson(const util::Json& j, std::vector<Diagnostic>& out,
                         std::string* error) {
  if (!j.isArray()) return fail(error, "diagnostics must be an array");
  out.clear();
  out.reserve(j.size());
  for (std::size_t i = 0; i < j.size(); ++i) {
    Diagnostic d;
    if (!diagnosticFromJson(j.at(i), d, error)) return false;
    out.push_back(std::move(d));
  }
  return true;
}

std::string renderDiagnostic(const ir::Graph& g, const Diagnostic& d) {
  std::ostringstream os;
  os << severityName(d.severity) << "[" << d.code << "]: " << d.message;
  if (!d.nodes.empty()) {
    os << "\n    nodes:";
    constexpr std::size_t kMaxListed = 8;
    for (std::size_t i = 0; i < d.nodes.size() && i < kMaxListed; ++i) {
      const ir::NodeId id = d.nodes[i];
      os << (i == 0 ? " " : ", ") << id;
      if (id < g.size()) {
        const ir::Node& n = g.node(id);
        os << " (" << ir::opKindName(n.kind);
        if (!n.name.empty()) os << " '" << n.name << "'";
        os << ")";
      }
    }
    if (d.nodes.size() > kMaxListed) {
      os << ", +" << (d.nodes.size() - kMaxListed) << " more";
    }
  }
  if (!d.hint.empty()) os << "\n    hint: " << d.hint;
  return os.str();
}

}  // namespace lamp::analyze
