// acc-lint — static model verifier for shared-accelerator configurations.
//
//   usage: acc-lint [options] config.json [more-configs.json...]
//
// Checks a system configuration (sharing/serialize.hpp spec format, plus the
// optional extended sections described in docs/static_analysis.md) against
// the full rule catalog WITHOUT running the simulator: dataflow consistency
// and deadlock-freedom, Eq. 2-4 preconditions, throughput feasibility
// (Eq. 5), gateway-chain well-formedness, C-FIFO admissibility, fault-config
// sanity and determinism hazards.
//
// Exit status: 0 = every config is clean (warnings/notes allowed),
//              1 = usage error, unreadable file or invalid JSON syntax,
//              2 = at least one config has error-tier findings.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/linter.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: acc-lint [options] config.json [more-configs.json...]\n"
        "\n"
        "options:\n"
        "  --json         emit the acc-lint-v1 JSON document instead of text\n"
        "                 (exactly one config)\n"
        "  --rules        print the rule catalog and exit\n"
        "  --allow RULE   suppress a rule by ID or name (repeatable)\n"
        "  --quiet        print nothing for clean configs\n"
        "  -h, --help     this message\n";
}

void print_rules(std::ostream& os) {
  for (const acc::lint::RuleInfo& r : acc::lint::kRules) {
    os << r.id << "  " << acc::lint::severity_name(r.severity) << "  "
       << r.name << "\n      " << r.summary << "\n";
  }
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acc;

  bool json_out = false;
  bool quiet = false;
  lint::LintOptions opts;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_out = true;
    } else if (arg == "--rules") {
      print_rules(std::cout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--allow") {
      if (i + 1 >= argc) {
        std::cerr << "acc-lint: --allow needs a rule ID\n";
        return 1;
      }
      // Validated by the library (an unknown rule becomes a C01 error in
      // the report itself), so --json consumers see the bad waiver too.
      opts.suppress.emplace_back(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "acc-lint: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    print_usage(std::cerr);
    return 1;
  }
  if (json_out && paths.size() != 1) {
    std::cerr << "acc-lint: --json takes exactly one config\n";
    return 1;
  }

  bool any_errors = false;
  for (const std::string& path : paths) {
    std::ifstream f(path);
    if (!f) {
      std::cerr << "acc-lint: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    json::Value doc;
    try {
      doc = json::parse_or_throw(buf.str());
    } catch (const precondition_error& e) {
      std::cerr << "acc-lint: " << path << ": " << e.what() << "\n";
      return 1;
    }
    // Report under the basename so output is stable across checkouts
    // (golden fixtures diff it byte-for-byte).
    const lint::LintReport rep =
        lint::lint_config_json(doc, basename_of(path), opts);
    if (json_out) {
      std::cout << rep.to_json().pretty() << "\n";
    } else if (!quiet || !rep.clean()) {
      std::cout << rep.to_text();
    }
    any_errors |= !rep.clean();
  }
  return any_errors ? 2 : 0;
}
