// Unit tests for the VSM module, anchored on the paper's worked examples
// (Table 1 and Table 2): the DPA and IPA similarity values must reproduce
// the published numbers exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "core/extractor.hpp"
#include "trace/generator.hpp"
#include "vsm/attribute.hpp"
#include "vsm/semantic_vector.hpp"
#include "vsm/similarity.hpp"

namespace farmer {
namespace {

/// Builds the three example files of the paper's Table 1:
///   A: user1, p1, host1, /home/user1/paper/a
///   B: user1, p2, host1, /home/user1/paper/b
///   C: user2, p3, host2, /home/user2/c
struct PaperExample {
  Interner interner;
  SemanticVector a, b, c;

  PaperExample() {
    a.user = interner.intern("user1");
    a.process = interner.intern("p1");
    a.host = interner.intern("host1");
    intern_path_components("/home/user1/paper/a", interner, a.path_components);

    b.user = interner.intern("user1");
    b.process = interner.intern("p2");
    b.host = interner.intern("host1");
    intern_path_components("/home/user1/paper/b", interner, b.path_components);

    c.user = interner.intern("user2");
    c.process = interner.intern("p3");
    c.host = interner.intern("host2");
    intern_path_components("/home/user2/c", interner, c.path_components);
  }
};

constexpr AttributeMask kAllPath = AttributeMask::all_with_path();

// --------------------------------------------------- paper Table 2: DPA --

TEST(PaperTable2, DpaSimAB) {
  PaperExample ex;
  // Items of A: {user1, p1, host1, home, user1, paper, a} -> 7 items.
  // A ∩ B = {user1(attr), host1, home, user1(path), paper} = 5.
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.b, kAllPath, PathMode::kDivided),
                   5.0 / 7.0);
}

TEST(PaperTable2, DpaSimAC) {
  PaperExample ex;
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.c, kAllPath, PathMode::kDivided),
                   1.0 / 7.0);
}

TEST(PaperTable2, DpaSimBC) {
  PaperExample ex;
  EXPECT_DOUBLE_EQ(similarity(ex.b, ex.c, kAllPath, PathMode::kDivided),
                   1.0 / 7.0);
}

// --------------------------------------------------- paper Table 2: IPA --

TEST(PaperTable2, IpaSimAB) {
  PaperExample ex;
  // user matches (1) + host matches (1) + dir similarity 3/4 = 2.75 over
  // max item count 4.
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.b, kAllPath, PathMode::kIntegrated),
                   2.75 / 4.0);
}

TEST(PaperTable2, IpaSimAC) {
  PaperExample ex;
  // No scalar matches; dir similarity = |{home}| / max(4,3) = 0.25.
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.c, kAllPath, PathMode::kIntegrated),
                   0.25 / 4.0);
}

TEST(PaperTable2, IpaSimBC) {
  PaperExample ex;
  EXPECT_DOUBLE_EQ(similarity(ex.b, ex.c, kAllPath, PathMode::kIntegrated),
                   0.25 / 4.0);
}

// -------------------------------------------------- similarity mechanics --

TEST(Similarity, IdenticalVectorsGiveOne) {
  PaperExample ex;
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.a, kAllPath, PathMode::kDivided), 1.0);
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.a, kAllPath, PathMode::kIntegrated),
                   1.0);
}

TEST(Similarity, SymmetricInArguments) {
  PaperExample ex;
  for (const auto mode : {PathMode::kDivided, PathMode::kIntegrated}) {
    EXPECT_DOUBLE_EQ(similarity(ex.a, ex.b, kAllPath, mode),
                     similarity(ex.b, ex.a, kAllPath, mode));
    EXPECT_DOUBLE_EQ(similarity(ex.a, ex.c, kAllPath, mode),
                     similarity(ex.c, ex.a, kAllPath, mode));
  }
}

TEST(Similarity, BoundedInUnitInterval) {
  PaperExample ex;
  for (const auto mode : {PathMode::kDivided, PathMode::kIntegrated}) {
    const double s = similarity(ex.a, ex.b, kAllPath, mode);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Similarity, EmptyMaskGivesZero) {
  PaperExample ex;
  EXPECT_DOUBLE_EQ(
      similarity(ex.a, ex.b, AttributeMask{}, PathMode::kIntegrated), 0.0);
}

TEST(Similarity, SubsetMaskCountsOnlySelected) {
  PaperExample ex;
  // Only User: both are user1 -> 1/1.
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.b, AttributeMask{Attribute::kUser},
                              PathMode::kIntegrated),
                   1.0);
  // Only Process: p1 vs p2 -> 0.
  EXPECT_DOUBLE_EQ(similarity(ex.a, ex.b, AttributeMask{Attribute::kProcess},
                              PathMode::kIntegrated),
                   0.0);
}

TEST(Similarity, DeepPathDrownsAttributesUnderDpaOnly) {
  // The paper's argument for IPA: under DPA a deep directory dominates the
  // scalar attributes; under IPA the path is one item out of four.
  Interner in;
  SemanticVector x, y;
  x.user = in.intern("u");
  x.process = in.intern("p");
  x.host = in.intern("h");
  intern_path_components("/a/b/c/d/e/f/g/x.bin", in, x.path_components);
  y.user = in.intern("u");
  y.process = in.intern("p");
  y.host = in.intern("h");
  intern_path_components("/lib/y.so", in, y.path_components);

  const double dpa = similarity(x, y, kAllPath, PathMode::kDivided);
  const double ipa = similarity(x, y, kAllPath, PathMode::kIntegrated);
  // All three scalar attributes match, yet DPA is dragged to 3/11 while
  // IPA keeps 3/4.
  EXPECT_DOUBLE_EQ(dpa, 3.0 / 11.0);
  EXPECT_DOUBLE_EQ(ipa, 3.0 / 4.0);
  EXPECT_GT(ipa, dpa);
}

TEST(Similarity, FileIdAttributeSharedDevice) {
  Interner in;
  SemanticVector x, y;
  x.user = in.intern("u1");
  x.dev = in.intern("dev3");
  x.fid = in.intern("fid1");
  y.user = in.intern("u1");
  y.dev = in.intern("dev3");
  y.fid = in.intern("fid2");
  const AttributeMask mask{Attribute::kUser, Attribute::kFileId};
  // Items: {u1, dev3, fidX}; matches = u1 + dev3 = 2 of 3.
  EXPECT_DOUBLE_EQ(similarity(x, y, mask, PathMode::kIntegrated), 2.0 / 3.0);
}

TEST(Similarity, MissingTokensShrinkVector) {
  Interner in;
  SemanticVector x, y;
  x.user = in.intern("u1");
  y.user = in.intern("u1");
  y.host = in.intern("h1");
  const AttributeMask mask{Attribute::kUser, Attribute::kHost};
  // |x| = 1, |y| = 2 -> intersection 1 / max 2.
  EXPECT_DOUBLE_EQ(similarity(x, y, mask, PathMode::kIntegrated), 0.5);
}

TEST(Similarity, BothEmptyVectorsGiveZero) {
  SemanticVector x, y;
  EXPECT_DOUBLE_EQ(similarity(x, y, kAllPath, PathMode::kIntegrated), 0.0);
}

// -------------------------------------------------- multiset primitives --

TEST(MultisetIntersection, CountsMinMultiplicity) {
  Interner in;
  const TokenId a = in.intern("a"), b = in.intern("b"), c = in.intern("c");
  SmallVector<TokenId, 8> x{a, a, b};
  SmallVector<TokenId, 8> y{a, b, b, c};
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  // min(2,1) for a + min(1,2) for b = 2.
  EXPECT_EQ(multiset_intersection(x.data(), x.size(), y.data(), y.size()), 2u);
}

TEST(MultisetIntersection, DisjointIsZero) {
  Interner in;
  SmallVector<TokenId, 8> x{in.intern("a")};
  SmallVector<TokenId, 8> y{in.intern("b")};
  EXPECT_EQ(multiset_intersection(x.data(), x.size(), y.data(), y.size()), 0u);
}

TEST(MultisetIntersection, MatchesSetIntersectionBothWays) {
  // std::set_intersection keeps min(count_a(x), count_b(x)) copies of each
  // x from two sorted ranges, so its output size is the reference. Sizes
  // 0-40 against 0-2,000 over alphabets of 1-256 tokens, so tokens repeat;
  // every fourth pair is skewed, |b| >= 16 * |a|.
  Rng rng(20080122);
  std::size_t skewed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t na = rng.next_below(41);
    const std::size_t nb = trial % 4 == 0
                               ? 16 * na + rng.next_below(2001 - 16 * na)
                               : rng.next_below(2001);
    const std::uint64_t alphabet = 1 + rng.next_below(256);
    std::vector<TokenId> a, b, common;
    for (std::size_t i = 0; i < na; ++i)
      a.emplace_back(static_cast<std::uint32_t>(rng.next_below(alphabet)));
    for (std::size_t i = 0; i < nb; ++i)
      b.emplace_back(static_cast<std::uint32_t>(rng.next_below(alphabet)));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    if (na > 0 && nb >= 16 * na) ++skewed;
    ASSERT_EQ(multiset_intersection(a.data(), na, b.data(), nb),
              common.size())
        << "trial " << trial << ": |a| = " << na << ", |b| = " << nb;
    ASSERT_EQ(multiset_intersection(b.data(), nb, a.data(), na),
              common.size())
        << "trial " << trial << ": |a| = " << na << ", |b| = " << nb;
  }
  EXPECT_GE(skewed, 500u);
}

TEST(PathSimilarity, PaperValues) {
  Interner in;
  SmallVector<TokenId, 8> a, b, c;
  intern_path_components("/home/user1/paper/a", in, a);
  intern_path_components("/home/user1/paper/b", in, b);
  intern_path_components("/home/user2/c", in, c);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::sort(c.begin(), c.end());
  EXPECT_DOUBLE_EQ(path_similarity(a, b), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(path_similarity(a, c), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(path_similarity(b, c), 1.0 / 4.0);
}

TEST(PathComponents, ParsingNormalises) {
  Interner in;
  SmallVector<TokenId, 8> out;
  intern_path_components("//home///user1/paper/", in, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(in.resolve(out[0]), "home");
  EXPECT_EQ(in.resolve(out[1]), "user1");
  EXPECT_EQ(in.resolve(out[2]), "paper");
}

TEST(PathComponents, EmptyPath) {
  Interner in;
  SmallVector<TokenId, 8> out;
  intern_path_components("", in, out);
  EXPECT_TRUE(out.empty());
  intern_path_components("/", in, out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------ signature --

TEST(Signature, DpaExpandsPathIntoItems) {
  PaperExample ex;
  const Signature s = build_signature(ex.a, kAllPath, PathMode::kDivided);
  EXPECT_EQ(s.items().size(), 7u);
  EXPECT_FALSE(s.ipa_path());
  EXPECT_TRUE(s.path_sorted().empty());
  EXPECT_EQ(s.item_count(), 7u);
}

TEST(Signature, IpaKeepsPathAsOneItem) {
  PaperExample ex;
  const Signature s = build_signature(ex.a, kAllPath, PathMode::kIntegrated);
  EXPECT_EQ(s.items().size(), 3u);  // user, process, host
  EXPECT_TRUE(s.ipa_path());
  EXPECT_EQ(s.item_count(), 4u);
  EXPECT_EQ(s.path_sorted().size(), 4u);
  // The two runs are sorted separately, items first.
  EXPECT_TRUE(std::is_sorted(s.items().begin(), s.items().end()));
  EXPECT_TRUE(std::is_sorted(s.path_sorted().begin(), s.path_sorted().end()));
}

TEST(Signature, ItemsAreSorted) {
  PaperExample ex;
  const Signature s = build_signature(ex.a, kAllPath, PathMode::kDivided);
  EXPECT_TRUE(std::is_sorted(s.items().begin(), s.items().end()));
}

// ----------------------------------------------------------- attributes --

// Every signature of the four paper traces fits the 8 inline tokens of its
// array, under IPA and DPA, with the four attributes the figures select for
// the trace (File Path where it has paths, File ID otherwise; every other
// figure mask is a subset). A trace or attribute change that outgrows them
// would spill a heap array from every per-file block; it fails here instead
// of silently growing Table 4.
TEST(Signature, PaperTracesStayInline) {
  for (const TraceKind kind : {TraceKind::kLLNL, TraceKind::kINS,
                               TraceKind::kRES, TraceKind::kHP}) {
    const Trace t = make_paper_trace(kind, kExperimentSeed, 0.05);
    const AttributeMask mask = t.has_paths ? AttributeMask::all_with_path()
                                           : AttributeMask::all_with_fileid();
    const Extractor extractor(t.dict);
    SemanticVector sv;
    for (const PathMode mode : {PathMode::kIntegrated, PathMode::kDivided}) {
      std::size_t most = 0;
      for (const TraceRecord& r : t.records) {
        extractor.extract(r, sv);
        const Signature sig = build_signature(sv, mask, mode);
        most = std::max(most, sig.tokens.size());
        ASSERT_EQ(sig.tokens.heap_bytes(), 0u)
            << t.name << ": a " << sig.tokens.size() << "-token signature";
      }
      EXPECT_GE(most, 5u) << t.name;  // the records carry their attributes
    }
  }
}

TEST(AttributeMask, BasicOps) {
  AttributeMask m{Attribute::kUser};
  EXPECT_TRUE(m.has(Attribute::kUser));
  EXPECT_FALSE(m.has(Attribute::kHost));
  m |= Attribute::kHost;
  EXPECT_TRUE(m.has(Attribute::kHost));
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(AttributeMask{}.empty());
}

TEST(AttributeCombinations, FifteenRowsMatchingPaperOrder) {
  const auto hp = paper_attribute_combinations(/*use_path=*/true);
  ASSERT_EQ(hp.size(), 15u);
  EXPECT_EQ(hp.front().label, "{User}");
  EXPECT_EQ(hp.back().label, "{Host, User, Process, File Path}");
  const auto ins = paper_attribute_combinations(/*use_path=*/false);
  ASSERT_EQ(ins.size(), 15u);
  EXPECT_EQ(ins[3].label, "{File ID}");
  // Every mask distinct.
  for (std::size_t i = 0; i < hp.size(); ++i)
    for (std::size_t j = i + 1; j < hp.size(); ++j)
      EXPECT_FALSE(hp[i].mask == hp[j].mask) << i << "," << j;
}

TEST(AttributeMask, ToString) {
  EXPECT_EQ(mask_to_string(AttributeMask{Attribute::kUser, Attribute::kPath}),
            "{User, File Path}");
  EXPECT_EQ(mask_to_string(AttributeMask{}), "{}");
}

}  // namespace
}  // namespace farmer
