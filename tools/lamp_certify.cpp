// lamp-certify — independent checker for lampproof certificates.
//
//   lamp-certify [options] <proof-file>
//
//   <proof-file>     a lampproof text file (lampc --proof-out=FILE, or
//                    the "certificate.proof" field of a service result);
//                    "-" reads the proof from stdin
//   --quiet          print nothing; the exit code is the verdict
//   --json           print the verdict as a JSON object instead of text
//
// Replays every derivation of the proof in exact rational arithmetic —
// root and per-node dual bounds, the branching tree's cover of the
// integer space, and the incumbent's feasibility and objective — trusting
// no solver float (see src/certify/certify.h for the trust boundary).
// The model is read from the proof header itself, which the solver
// emitted from the same in-memory model it solved; checking a proof
// against an independently built model is exercised through the library
// API (certify::checkProof's `expect` parameter).
//
// Exit code 0 when the certificate verifies, 1 when it is rejected or
// carries an uncertifiable claim, 2 on usage/IO errors.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "certify/certify.h"
#include "util/json.h"
#include "util/parse.h"

int main(int argc, char** argv) {
  std::string path;
  bool quiet = false;
  bool json = false;
  lamp::util::ArgParser cli;
  cli.flag("quiet", quiet);
  cli.flag("json", json);
  cli.positional(path);
  if (std::string err; !cli.parse(argc, argv, err)) {
    std::cerr << "lamp-certify: " << err << "\n";
    return 2;
  }
  if (path.empty()) {
    std::cerr << "usage: lamp-certify [--quiet|--json] <proof-file>\n";
    return 2;
  }

  std::string text;
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "lamp-certify: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  const lamp::certify::CheckResult res = lamp::certify::checkProof(text);
  if (json) {
    lamp::util::Json j = lamp::util::Json::object();
    j.set("verified", lamp::util::Json::boolean(res.verified));
    j.set("status", lamp::util::Json::string(res.status));
    if (!res.detail.empty()) {
      j.set("detail", lamp::util::Json::string(res.detail));
    }
    j.set("claim", lamp::util::Json::string(res.claim));
    j.set("treeNodes", lamp::util::Json::integer(res.treeNodes));
    j.set("checkerMillis", lamp::util::Json::integer(res.checkerMillis));
    j.write(std::cout);
    std::cout << "\n";
  } else if (!quiet) {
    std::cout << "lamp-certify: " << res.status << " (claim " << res.claim
              << ", " << res.treeNodes << " tree nodes, " << res.checkerMillis
              << " ms)\n";
    if (!res.detail.empty()) std::cout << "  " << res.detail << "\n";
  }
  return res.verified ? 0 : 1;
}
