//===- report/ProfileExport.cpp -------------------------------------------===//

#include "report/ProfileExport.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <charconv>
#include <unordered_set>

using namespace kremlin;
using namespace kremlin::report;

// --- Tree building ----------------------------------------------------------

namespace {

struct TreeBuilder {
  const ParallelismProfile &P;
  const ReportOptions &Opts;
  RegionTree Tree;
  /// Regions on the current DFS path — recursion back-edges are cut so a
  /// recursive program yields a finite tree.
  std::unordered_set<RegionId> OnPath;

  TreeBuilder(const ParallelismProfile &Prof, const ReportOptions &O)
      : P(Prof), Opts(O) {}

  double coverageOf(uint64_t Work) const {
    return Tree.ProgramWork
               ? 100.0 * static_cast<double>(Work) /
                     static_cast<double>(Tree.ProgramWork)
               : 0.0;
  }

  void visit(RegionId R, int Parent, unsigned Depth, uint64_t Work,
             uint64_t Visits) {
    const RegionProfileEntry &E = P.entry(R);
    int Self = static_cast<int>(Tree.Nodes.size());
    RegionTreeNode Node;
    Node.Region = R;
    Node.Parent = Parent;
    Node.Depth = Depth;
    Node.Work = Work;
    Node.SelfWork = Work; // Kept children subtract below.
    Node.Visits = Visits;
    Node.SelfParallelism = E.SelfParallelism;
    Node.CoveragePct = coverageOf(Work);
    Tree.Nodes.push_back(Node);

    OnPath.insert(R);
    // Children sorted by descending work so sibling order is meaningful in
    // every rendering.
    std::vector<uint32_t> Kids(P.childEdges(R));
    std::stable_sort(Kids.begin(), Kids.end(), [&](uint32_t A, uint32_t B) {
      return P.edges()[A].Work > P.edges()[B].Work;
    });
    for (uint32_t EdgeIdx : Kids) {
      const RegionEdge &Edge = P.edges()[EdgeIdx];
      if (OnPath.count(Edge.Child))
        continue; // Recursion back-edge.
      if (coverageOf(Edge.Work) < Opts.MinCoveragePct)
        continue; // Pruned subtree folds into this node's self-work.
      Tree.Nodes[Self].SelfWork -= std::min(Tree.Nodes[Self].SelfWork,
                                            Edge.Work);
      visit(Edge.Child, Self, Depth + 1, Edge.Work, Edge.Count);
    }
    OnPath.erase(R);
  }
};

/// Compact, space-free frame label for collapsed-stacks output.
std::string collapsedLabel(const Module &M, const RegionProfileEntry &E) {
  const StaticRegion &R = M.Regions[E.Id];
  return formatString("%s:%s:%u[SP=%s]", R.Name.c_str(),
                      regionKindName(R.Kind), R.StartLine,
                      formatFixed(E.SelfParallelism, 1).c_str());
}

/// Root-to-node frame stack as tree-node indices.
std::vector<int> pathTo(const RegionTree &T, int Node) {
  std::vector<int> Path;
  for (int I = Node; I >= 0; I = T.Nodes[static_cast<size_t>(I)].Parent)
    Path.push_back(I);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

} // namespace

RegionTree report::buildRegionTree(const ParallelismProfile &P,
                                   const ReportOptions &Opts) {
  TreeBuilder B(P, Opts);
  B.Tree.ProgramWork = P.programWork();
  RegionId Root = P.rootRegion();
  if (Root != NoRegion) {
    const RegionProfileEntry &E = P.entry(Root);
    B.visit(Root, -1, 0, E.TotalWork, E.Instances);
  }
  return std::move(B.Tree);
}

/// Appends the human frame label "name file.c (4-9) [loop SP=7.9]" to
/// \p Label, piece by piece: it runs once per speedscope frame, where
/// printf-style formatting would dominate the export.
static void appendFrameLabel(std::string &Label, const Module &M,
                             const RegionProfileEntry &E) {
  const StaticRegion &R = M.Regions[E.Id];
  char Buf[328]; // Fits any finite double in fixed notation.
  Label += R.Name;
  Label += ' ';
  if (R.File.empty()) {
    Label += R.Name;
  } else {
    Label += R.File;
    Label += " (";
    Label.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), R.StartLine).ptr);
    Label += '-';
    Label.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), R.EndLine).ptr);
    Label += ')';
  }
  Label += " [";
  Label += regionKindName(R.Kind);
  Label += " SP=";
  Label.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), E.SelfParallelism,
                                  std::chars_format::fixed, 1)
                        .ptr);
  Label += ']';
}

// --- speedscope -------------------------------------------------------------

std::string report::exportSpeedscope(const ParallelismProfile &P,
                                     const RegionTree &T,
                                     const std::string &Name) {
  const Module &M = P.module();

  // One shared frame per static region (several tree nodes may share it),
  // numbered in first use: samples in preorder, each stack root to leaf.
  // Samples are stored flat, one frame index per stack level.
  std::vector<int> FrameOf(M.Regions.size(), -1);
  std::vector<RegionId> Frames;
  std::vector<int> Stacks;
  std::vector<size_t> StackEnds;
  std::vector<RegionId> Path; // Regions from the root to the current node.
  uint64_t Total = 0;
  for (const RegionTreeNode &N : T.Nodes) {
    Path.resize(N.Depth);
    Path.push_back(N.Region);
    if (N.SelfWork == 0)
      continue;
    for (RegionId R : Path) {
      if (FrameOf[R] < 0) {
        FrameOf[R] = static_cast<int>(Frames.size());
        Frames.push_back(R);
      }
      Stacks.push_back(FrameOf[R]);
    }
    StackEnds.push_back(Stacks.size());
    Total += N.SelfWork;
  }

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("$schema").string(
      "https://www.speedscope.app/file-format-schema.json");
  W.key("name").string(Name);
  W.key("activeProfileIndex").number(0);
  W.key("exporter").string("kremlin report");
  W.key("shared").beginObject();
  W.key("frames").beginArray();
  std::string Label;
  for (RegionId R : Frames) {
    const StaticRegion &SR = M.Regions[R];
    Label.clear();
    appendFrameLabel(Label, M, P.entry(R));
    W.beginObject();
    W.key("name").string(Label);
    if (!SR.File.empty())
      W.key("file").string(SR.File);
    if (SR.StartLine)
      W.key("line").number(SR.StartLine);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  W.key("profiles").beginArray();
  W.beginObject();
  W.key("type").string("sampled");
  W.key("name").string(Name);
  W.key("unit").string("none"); // Weights are abstract work units.
  W.key("startValue").number(0);
  W.key("endValue").number(static_cast<double>(Total));
  W.key("samples").beginArray();
  size_t Begin = 0;
  for (size_t End : StackEnds) {
    W.beginArray();
    for (size_t I = Begin; I < End; ++I)
      W.number(Stacks[I]);
    W.endArray();
    Begin = End;
  }
  W.endArray();
  W.key("weights").beginArray();
  for (const RegionTreeNode &N : T.Nodes)
    if (N.SelfWork != 0)
      W.number(static_cast<double>(N.SelfWork));
  W.endArray();
  W.endObject();
  W.endArray();
  W.endObject();
  Out += '\n';
  return Out;
}

// --- collapsed stacks -------------------------------------------------------

std::string report::exportCollapsed(const ParallelismProfile &P,
                                    const RegionTree &T) {
  const Module &M = P.module();
  std::string Out;
  for (size_t I = 0; I < T.Nodes.size(); ++I) {
    const RegionTreeNode &N = T.Nodes[I];
    if (N.SelfWork == 0)
      continue;
    std::string Line;
    for (int Step : pathTo(T, static_cast<int>(I))) {
      if (!Line.empty())
        Line += ';';
      Line += collapsedLabel(
          M, P.entry(T.Nodes[static_cast<size_t>(Step)].Region));
    }
    Out += Line;
    Out += formatString(" %llu\n",
                        static_cast<unsigned long long>(N.SelfWork));
  }
  return Out;
}

// --- timeline ---------------------------------------------------------------

std::string report::exportTimeline(const ParallelismProfile &P,
                                   const DictionaryCompressor &Dict,
                                   const ReportOptions &Opts) {
  const Module &M = P.module();
  const std::vector<DynRegionSummary> &Alphabet = Dict.alphabet();
  std::vector<uint64_t> Mult = Dict.computeMultiplicities();

  // Regions sorted by descending total work; Top/MinCoverage applied here.
  std::vector<const RegionProfileEntry *> Order;
  for (const RegionProfileEntry &E : P.entries())
    if (E.Executed && E.CoveragePct >= Opts.MinCoveragePct)
      Order.push_back(&E);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const RegionProfileEntry *A,
                      const RegionProfileEntry *B) {
                     return A->TotalWork > B->TotalWork;
                   });
  if (Opts.Top && Order.size() > Opts.Top)
    Order.resize(Opts.Top);

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("program_work").number(static_cast<double>(P.programWork()));
  W.key("regions").beginArray();
  for (const RegionProfileEntry *E : Order) {
    const StaticRegion &SR = M.Regions[E->Id];
    W.beginObject();
    W.key("region").number(E->Id);
    W.key("name").string(SR.Name);
    W.key("kind").string(regionKindName(SR.Kind));
    W.key("source").string(SR.sourceSpan());
    W.key("coverage_pct").number(E->CoveragePct);
    W.key("self_parallelism").number(E->SelfParallelism);
    W.key("total_parallelism").number(E->TotalParallelism);
    if (SR.Kind == RegionKind::Loop)
      W.key("loop_class").string(loopClassName(E->Class));

    // One timeline point per unique dynamic behavior of this region: the
    // alphabet entry stands for Mult[i] identical dynamic visits.
    W.key("visits").beginArray();
    for (size_t I = 0; I < Alphabet.size(); ++I) {
      const DynRegionSummary &S = Alphabet[I];
      if (S.Static != E->Id)
        continue;
      W.beginObject();
      W.key("work").number(static_cast<double>(S.Work));
      W.key("cp").number(static_cast<double>(S.Cp));
      W.key("self_parallelism")
          .number(summarySelfParallelism(S, Alphabet));
      W.key("count").number(static_cast<double>(Mult[I]));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  Out += '\n';
  return Out;
}

// --- terminal tree ----------------------------------------------------------

std::string report::renderTree(const ParallelismProfile &P,
                               const RegionTree &T,
                               const ReportOptions &Opts) {
  const Module &M = P.module();
  TablePrinter Table;
  Table.setHeader({"region", "kind", "source", "work", "self%", "cov%",
                   "sp", "class", "visits"});
  size_t Rows = 0;
  for (const RegionTreeNode &N : T.Nodes) {
    if (Opts.Top && Rows >= Opts.Top)
      break;
    const RegionProfileEntry &E = P.entry(N.Region);
    const StaticRegion &SR = M.Regions[N.Region];
    double SelfPct =
        N.Work ? 100.0 * static_cast<double>(N.SelfWork) /
                     static_cast<double>(N.Work)
               : 0.0;
    Table.addRow({std::string(2 * N.Depth, ' ') + SR.Name,
                  regionKindName(SR.Kind), SR.sourceSpan(),
                  formatString("%llu",
                               static_cast<unsigned long long>(N.Work)),
                  formatFixed(SelfPct, 1), formatFixed(N.CoveragePct, 1),
                  formatFixed(N.SelfParallelism, 1),
                  SR.Kind == RegionKind::Loop ? loopClassName(E.Class) : "-",
                  formatString("%llu",
                               static_cast<unsigned long long>(N.Visits))});
    ++Rows;
  }
  return Table.render();
}
