// Tables 1 + 2 — semantic-vector construction and the DPA-vs-IPA worked
// example. These are exact-value reproductions: the printed fractions must
// equal the paper's (DPA: 5/7, 1/7, 1/7 — IPA: 2.75/4, 0.25/4, 0.25/4).
#include "bench_util.hpp"
#include "common/interner.hpp"
#include "vsm/similarity.hpp"

int main() {
  using namespace farmer;
  using namespace farmer::bench;
  // No variable applies here, but loading the configuration is what makes
  // a misspelt FARMER_* variable exit 2 here as in every other bench.
  runtime();

  print_experiment_header(
      std::cout, "Table 1 + Table 2",
      "semantic vectors and DPA vs IPA similarity on the paper's example",
      "DPA: sim(A,B)=5/7, sim(A,C)=sim(B,C)=1/7; "
      "IPA: sim(A,B)=2.75/4, sim(A,C)=sim(B,C)=0.25/4");

  Interner interner;
  auto make = [&](const char* user, const char* proc, const char* host,
                  const char* path) {
    SemanticVector sv;
    sv.user = interner.intern(user);
    sv.process = interner.intern(proc);
    sv.host = interner.intern(host);
    intern_path_components(path, interner, sv.path_components);
    return sv;
  };
  const SemanticVector a = make("user1", "p1", "host1", "/home/user1/paper/a");
  const SemanticVector b = make("user1", "p2", "host1", "/home/user1/paper/b");
  const SemanticVector c = make("user2", "p3", "host2", "/home/user2/c");
  const auto mask = AttributeMask::all_with_path();

  Table table({"pair", "DPA (measured)", "DPA (paper)", "IPA (measured)",
               "IPA (paper)"});
  struct Row {
    const char* name;
    const SemanticVector* x;
    const SemanticVector* y;
    const char* dpa_paper;
    const char* ipa_paper;
  };
  const Row rows[] = {
      {"sim(A,B)", &a, &b, "5/7 = 0.7143", "2.75/4 = 0.6875"},
      {"sim(A,C)", &a, &c, "1/7 = 0.1429", "0.25/4 = 0.0625"},
      {"sim(B,C)", &b, &c, "1/7 = 0.1429", "0.25/4 = 0.0625"},
  };
  for (const Row& r : rows) {
    table.add_row(
        {r.name,
         fmt_double(similarity(*r.x, *r.y, mask, PathMode::kDivided), 4),
         r.dpa_paper,
         fmt_double(similarity(*r.x, *r.y, mask, PathMode::kIntegrated), 4),
         r.ipa_paper});
  }
  table.print(std::cout);

  // The deep-directory pathology motivating IPA (Section 3.2.1): an
  // executable and the library it links share every scalar attribute but no
  // path components.
  std::cout << "\ndeep-path pathology (binary vs linked library, all scalar "
               "attributes equal):\n";
  const SemanticVector exe =
      make("u", "p", "h", "/home/u/project/build/bin/app");
  const SemanticVector lib = make("u", "p", "h", "/lib/libm.so");
  Table path_table({"mode", "similarity", "passes max_strength 0.4?"});
  for (const auto mode : {PathMode::kDivided, PathMode::kIntegrated}) {
    const double s = similarity(exe, lib, mask, mode);
    path_table.add_row({mode == PathMode::kDivided ? "DPA" : "IPA",
                        fmt_double(s, 4),
                        0.7 * s >= 0.4 ? "yes" : "no (filtered!)"});
  }
  path_table.print(std::cout);
  std::cout << "\nIPA keeps the strongly-correlated exe/lib pair above the "
               "validity threshold; DPA filters it — the paper's reason for "
               "selecting IPA.\n";
  return 0;
}
