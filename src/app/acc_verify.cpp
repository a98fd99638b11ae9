// acc-verify — exhaustive bounded model checker for shared-accelerator
// configurations.
//
//   usage: acc-verify [options] config.json [more-configs.json...]
//
// Lints each configuration with the full acc-lint rule set, then builds a
// small cycle-exact verification model of the gateway-managed chain and
// exhaustively explores every reachable state under all environment
// interleavings (feed / drain / advance), bounded by the config's "verify"
// depth/state budgets, checking the temporal-safety rules V01-V05 — ending
// with the wake-soundness audit. A violation comes with a deterministically
// replayable counterexample. See docs/static_analysis.md.
//
// Exit status: 0 = every config is clean (within its declared budgets),
//              1 = usage error, unreadable file or invalid JSON syntax,
//              2 = at least one config has error-tier findings.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "verify/verify.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: acc-verify [options] config.json [more-configs.json...]\n"
        "\n"
        "options:\n"
        "  --json         emit the acc-lint-v1 JSON document (plus a\n"
        "                 \"verify\" section) instead of text (one config)\n"
        "  --rules        print the rule catalog and exit\n"
        "  --allow RULE   suppress a rule by ID or name (repeatable)\n"
        "  --depth N      override the exploration depth budget\n"
        "  --states N     override the distinct-state budget\n"
        "  --max-advance N  override the cycles one 'run' action may use\n"
        "  --jobs N       frontier-expansion workers (output is identical\n"
        "                 for every N)\n"
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

bool parse_int_arg(int argc, char** argv, int& i, const char* flag,
                   std::int64_t& out) {
  if (i + 1 >= argc) {
    std::cerr << "acc-verify: " << flag << " needs a value\n";
    return false;
  }
  out = std::strtoll(argv[++i], nullptr, 10);
  if (out <= 0) {
    std::cerr << "acc-verify: " << flag << " needs a positive integer\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acc;

  bool json_out = false;
  bool quiet = false;
  verify::VerifyOptions vopts;
  lint::LintOptions lopts;
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
        std::cerr << "acc-verify: --allow needs a rule ID\n";
        return 1;
      }
      // Validated by the library (an unknown rule becomes a C01 error in
      // the report itself), so --json consumers see the bad waiver too.
      lopts.suppress.emplace_back(argv[++i]);
    } else if (arg == "--depth") {
      if (!parse_int_arg(argc, argv, i, "--depth", vopts.depth)) return 1;
    } else if (arg == "--states") {
      if (!parse_int_arg(argc, argv, i, "--states", vopts.states)) return 1;
    } else if (arg == "--max-advance") {
      if (!parse_int_arg(argc, argv, i, "--max-advance", vopts.max_advance))
        return 1;
    } else if (arg == "--jobs") {
      std::int64_t jobs = 0;
      if (!parse_int_arg(argc, argv, i, "--jobs", jobs)) return 1;
      vopts.jobs = static_cast<int>(jobs);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "acc-verify: unknown option '" << arg << "'\n";
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
    std::cerr << "acc-verify: --json takes exactly one config\n";
    return 1;
  }

  bool any_errors = false;
  for (const std::string& path : paths) {
    std::ifstream f(path);
    if (!f) {
      std::cerr << "acc-verify: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    json::Value doc;
    try {
      doc = json::parse_or_throw(buf.str());
    } catch (const precondition_error& e) {
      std::cerr << "acc-verify: " << path << ": " << e.what() << "\n";
      return 1;
    }
    const std::string name = basename_of(path);
    const verify::VerifyResult res =
        verify::verify_config_json(doc, name, vopts, lopts);
    if (json_out) {
      json::Value root = res.report.to_json();
      json::Array cex;
      for (const verify::Action& a : res.counterexample)
        cex.emplace_back(verify::action_name(a));
      json::Object vsec;
      vsec["explored"] = res.explored;
      vsec["states_explored"] = res.states_explored;
      vsec["depth_reached"] = res.depth_reached;
      vsec["truncated"] = res.truncated;
      vsec["counterexample"] = json::Value(std::move(cex));
      root.as_object()["verify"] = json::Value(std::move(vsec));
      std::cout << root.pretty() << "\n";
    } else {
      if (!quiet || !res.report.clean()) {
        std::cout << res.report.to_text();
        if (res.explored && res.report.clean()) {
          std::cout << name << ": explored " << res.states_explored
                    << " states to depth " << res.depth_reached
                    << (res.truncated ? " (budget-truncated)" : "") << "\n";
        }
      }
      if (!res.report.clean()) {
        const std::string cex =
            verify::render_counterexample(doc, name, res, vopts);
        if (!cex.empty()) std::cout << cex;
      }
    }
    any_errors |= !res.report.clean();
  }
  return any_errors ? 2 : 0;
}
