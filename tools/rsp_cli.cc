// rsp — command-line front end for the restorable-tiebreaking library.
//
// Subcommands:
//   rsp gen  <family> <args...> <out.graph>     generate a workload graph
//   rsp info <graph>                            basic stats
//   rsp path <graph> <s> <t> [--fault e]...     selected path pi(s,t|F)
//   rsp restore <graph> <s> <t> <edge>          restoration-by-concatenation
//   rsp rp   <graph> <s> <t>                    replacement dists, all on-path edges
//   rsp preserver <graph> <f> <s1> <s2> ...     (f)-FT S x S preserver size + edges
//   rsp spanner <graph> <f>                     f-FT +4 spanner size
//   rsp audit <graph>                           property audit of the default scheme
//
// Graph files are read by load_graph_auto (graph/io.h): the native edge
// list, DIMACS .gr, SNAP .txt/.snap or frozen .rcsr. Vertex, edge and
// --fault ids are checked against the loaded graph; an id out of range is a
// usage error. The tiebreaking seed can be set with --seed N (default 2021).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/properties.h"
#include "core/restoration.h"
#include "core/rpts.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "preserver/ft_preserver.h"
#include "preserver/verify.h"
#include "rp/single_pair_rp.h"
#include "spanner/additive_spanner.h"

namespace restorable {
namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage:\n"
         "  rsp gen <gnp|grid|torus|cycle|hypercube|tree|theta|cliquechain>"
         " <args...> <out>\n"
         "  rsp info <graph>\n"
         "  rsp path <graph> <s> <t> [--fault e ...]\n"
         "  rsp restore <graph> <s> <t> <edge>\n"
         "  rsp rp <graph> <s> <t>\n"
         "  rsp preserver <graph> <f> <s1> <s2> [...]\n"
         "  rsp spanner <graph> <f>\n"
         "  rsp audit <graph>\n"
         "common flags: --seed N\n";
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> faults;
  uint64_t seed = 2021;
};

// Parses a vertex or edge id and rejects anything outside [0, limit).
uint32_t parse_id(const std::string& text, size_t limit, const char* what) {
  const bool digits = !text.empty() && text.size() <= 10 &&
                      std::all_of(text.begin(), text.end(),
                                  [](char c) { return c >= '0' && c <= '9'; });
  if (!digits || std::stoull(text) >= limit) {
    std::cerr << "error: " << what << " " << text << " out of range [0, "
              << limit << ")\n";
    usage();
  }
  return static_cast<uint32_t>(std::stoull(text));
}

Vertex vertex_arg(const Graph& g, const std::string& text) {
  return parse_id(text, g.num_vertices(), "vertex");
}

EdgeId edge_arg(const Graph& g, const std::string& text) {
  return parse_id(text, g.num_edges(), "edge");
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc) {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--fault" && i + 1 < argc) {
      args.faults.push_back(argv[++i]);
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.positional.empty()) usage();
  return args;
}

int cmd_gen(const Args& a) {
  const auto& p = a.positional;
  if (p.size() < 3) usage();
  const std::string family = p[1];
  const std::string out = p.back();
  auto arg = [&](size_t i) { return static_cast<Vertex>(std::stoul(p[i])); };
  Graph g;
  if (family == "gnp" && p.size() == 5)
    g = gnp_connected(arg(2), std::stod(p[3]), a.seed);
  else if (family == "grid" && p.size() == 5)
    g = grid(arg(2), arg(3));
  else if (family == "torus" && p.size() == 5)
    g = torus(arg(2), arg(3));
  else if (family == "cycle" && p.size() == 4)
    g = cycle(arg(2));
  else if (family == "hypercube" && p.size() == 4)
    g = hypercube(static_cast<int>(arg(2)));
  else if (family == "tree" && p.size() == 4)
    g = random_tree(arg(2), a.seed);
  else if (family == "theta" && p.size() == 5)
    g = theta_graph(arg(2), arg(3));
  else if (family == "cliquechain" && p.size() == 5)
    g = clique_chain(arg(2), arg(3));
  else
    usage();
  save_graph(g, out);
  std::cout << "wrote " << out << ": n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n";
  return 0;
}

int cmd_info(const Graph& g) {
  std::cout << "n=" << g.num_vertices() << " m=" << g.num_edges()
            << " connected=" << (is_connected(g) ? "yes" : "no");
  if (is_connected(g)) std::cout << " diameter=" << diameter(g);
  std::cout << "\n";
  return 0;
}

int cmd_path(const Graph& g, const Args& a) {
  if (a.positional.size() != 4) usage();
  const Vertex s = vertex_arg(g, a.positional[2]);
  const Vertex t = vertex_arg(g, a.positional[3]);
  std::vector<EdgeId> faults;
  for (const std::string& e : a.faults) faults.push_back(edge_arg(g, e));
  const auto pi = make_default_rpts(g, a.seed);
  const FaultSet f{std::move(faults)};
  const Path p = pi->path(s, t, f);
  if (p.empty()) {
    std::cout << "unreachable under F=" << f.to_string() << "\n";
    return 1;
  }
  std::cout << "pi(" << s << "," << t << " | " << f.to_string()
            << ") = " << p.to_string() << "  (" << p.length() << " hops)\n";
  return 0;
}

int cmd_restore(const Graph& g, const Args& a) {
  if (a.positional.size() != 5) usage();
  const Vertex s = vertex_arg(g, a.positional[2]);
  const Vertex t = vertex_arg(g, a.positional[3]);
  const EdgeId e = edge_arg(g, a.positional[4]);
  const auto pi = make_default_rpts(g, a.seed);
  const auto out = restore_by_concatenation(*pi, s, t, e);
  switch (out.status) {
    case RestorationOutcome::Status::kNoReplacementExists:
      std::cout << "edge " << e << " disconnects " << s << " and " << t
                << "\n";
      return 1;
    case RestorationOutcome::Status::kRestored:
      std::cout << "restored via midpoint " << out.midpoint << ": "
                << out.path.to_string() << "  (" << out.hops
                << " hops, optimal)\n";
      return 0;
    default:
      std::cout << "restoration incomplete (best " << out.hops << ", optimal "
                << out.optimal_hops << ")\n";
      return 1;
  }
}

int cmd_rp(const Graph& g, const Args& a) {
  if (a.positional.size() != 4) usage();
  const Vertex s = vertex_arg(g, a.positional[2]);
  const Vertex t = vertex_arg(g, a.positional[3]);
  const IsolationAtw atw(a.seed);
  const auto res = single_pair_replacement_paths(g, atw, s, t);
  if (res.base_path.empty()) {
    std::cout << "unreachable\n";
    return 1;
  }
  std::cout << "base path (" << res.base_path.length()
            << " hops): " << res.base_path.to_string() << "\n";
  for (size_t i = 0; i < res.replacement.size(); ++i) {
    const Edge& ed = g.endpoints(res.base_path.edges[i]);
    std::cout << "  fail (" << ed.u << "," << ed.v << "): ";
    if (res.replacement[i] == kUnreachable)
      std::cout << "disconnected\n";
    else
      std::cout << res.replacement[i] << " hops\n";
  }
  return 0;
}

int cmd_preserver(const Graph& g, const Args& a) {
  if (a.positional.size() < 4) usage();
  const int f = std::stoi(a.positional[2]);
  std::vector<Vertex> sources;
  for (size_t i = 3; i < a.positional.size(); ++i)
    sources.push_back(vertex_arg(g, a.positional[i]));
  const auto pi = make_default_rpts(g, a.seed);
  const EdgeSubset p = build_ss_preserver(*pi, sources, f);
  std::cout << f << "-FT S x S preserver: " << p.count() << " of "
            << g.num_edges() << " edges\n";
  const auto viol = verify_distances_sampled(g, p.to_graph(), sources, sources,
                                             f, 0, 200, a.seed);
  std::cout << (viol ? "sampled verification FAILED: " + viol->to_string()
                     : "sampled verification ok")
            << "\n";
  return viol ? 1 : 0;
}

int cmd_spanner(const Graph& g, const Args& a) {
  if (a.positional.size() != 3) usage();
  const int f = std::stoi(a.positional[2]);
  const auto pi = make_default_rpts(g, a.seed);
  const auto res = f == 0 ? build_plus4_spanner(
                                pi->graph().num_vertices() > 1
                                    ? *pi
                                    : *pi,  // same scheme either way
                                static_cast<size_t>(std::max(
                                    1.0, std::sqrt(double(g.num_vertices())))),
                                a.seed)
                          : build_ft_plus4_spanner(*pi, f, a.seed);
  std::cout << f << "-FT +4 spanner: " << res.edges.count() << " of "
            << g.num_edges() << " edges (" << res.centers.size()
            << " centers)\n";
  return 0;
}

int cmd_audit(const Graph& g, const Args& a) {
  const auto pi = make_default_rpts(g, a.seed);
  struct Row {
    const char* name;
    CheckResult result;
  };
  const Row rows[] = {
      {"shortest-paths", check_shortest_paths(*pi, {})},
      {"consistency", check_consistency(*pi, {}, 50)},
      {"stability", check_stability(*pi, {}, 25)},
      {"1-restorability", g.num_vertices() <= 24
                              ? check_f_restorable(*pi, 1)
                              : CheckResult{}},
      {"restoration-lemma", g.num_vertices() <= 24
                                ? check_restoration_lemma(g)
                                : CheckResult{}},
  };
  int rc = 0;
  for (const Row& r : rows) {
    std::cout << r.name << ": " << (r.result ? "FAIL" : "ok") << "\n";
    if (r.result) {
      std::cout << "  " << r.result->to_string() << "\n";
      rc = 1;
    }
  }
  return rc;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string& cmd = args.positional[0];
  if (cmd == "gen") return cmd_gen(args);
  if (args.positional.size() < 2) usage();
  const Graph g = load_graph_auto(args.positional[1]);
  if (cmd == "info") return cmd_info(g);
  if (cmd == "path") return cmd_path(g, args);
  if (cmd == "restore") return cmd_restore(g, args);
  if (cmd == "rp") return cmd_rp(g, args);
  if (cmd == "preserver") return cmd_preserver(g, args);
  if (cmd == "spanner") return cmd_spanner(g, args);
  if (cmd == "audit") return cmd_audit(g, args);
  usage();
}

}  // namespace
}  // namespace restorable

int main(int argc, char** argv) {
  try {
    return restorable::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
