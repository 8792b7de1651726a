//===- netflow/FlowNetwork.cpp - Parametric-capacity flow networks -------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "netflow/FlowNetwork.h"

#include <algorithm>

using namespace paco;

void Capacity::accumulate(const Capacity &Other) {
  if (Other.Infinite)
    Infinite = true;
  if (Infinite) {
    Expr = LinExpr();
    return;
  }
  Expr += Other.Expr;
}

NodeId FlowNetwork::addNode(std::string Label) {
  NodeId Id = static_cast<NodeId>(Labels.size());
  Labels.push_back(std::move(Label));
  return Id;
}

void FlowNetwork::addArc(NodeId From, NodeId To, Capacity Cap) {
  assert(From < Labels.size() && To < Labels.size() && "arc endpoint oob");
  if (From == To)
    return;
  if (!Cap.Infinite && Cap.Expr.isZero())
    return;
  auto Key = std::make_pair(From, To);
  auto It = ArcIndex.find(Key);
  if (It != ArcIndex.end()) {
    Arcs[It->second].Cap.accumulate(Cap);
    return;
  }
  ArcIndex.emplace(Key, static_cast<unsigned>(Arcs.size()));
  Arcs.push_back({From, To, std::move(Cap)});
}

std::string FlowNetwork::dump(const ParamSpace &Space) const {
  std::string Result;
  for (const Arc &A : Arcs) {
    Result += Labels[A.From] + " -> " + Labels[A.To] + " [";
    Result += A.Cap.Infinite ? "inf" : A.Cap.Expr.toString(Space);
    Result += "]\n";
  }
  return Result;
}

bool paco::alwaysGE(const LinExpr &A, const LinExpr &B,
                    const ParamSpace &Space) {
  LinExpr Diff = A - B;
  // Minimum of an affine function over the parameter box.
  Rational Min = Diff.constantTerm();
  for (const auto &[Id, Coeff] : Diff.terms()) {
    const BigInt &Bound =
        Coeff.isPositive() ? Space.lower(Id) : Space.upper(Id);
    Min += Coeff * Rational(Bound);
  }
  return !Min.isNegative();
}

namespace {

/// Sum of capacities that may include infinity.
struct CapSum {
  bool Infinite = false;
  LinExpr Expr;

  void add(const Capacity &C) {
    if (C.Infinite)
      Infinite = true;
    else
      Expr += C.Expr;
  }
};

/// \returns true if capacity \p A dominates the sum \p B over the box.
bool capDominates(const Capacity &A, const CapSum &B,
                  const ParamSpace &Space) {
  if (A.Infinite)
    return true;
  if (B.Infinite)
    return false;
  return alwaysGE(A.Expr, B.Expr, Space);
}

} // namespace

SimplifiedNetwork paco::simplifyNetwork(const FlowNetwork &Net,
                                        const ParamSpace &Space) {
  unsigned N = Net.numNodes();
  std::vector<NodeId> Parent(N);
  for (unsigned I = 0; I != N; ++I)
    Parent[I] = I;
  auto find = [&Parent](NodeId X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };

  // Merged adjacency: Out[n][m] / In[n][m] hold the accumulated capacity
  // between representatives n and m. Kept in sync across merges so each
  // dominance check is proportional to the degree of the candidate node.
  std::vector<std::map<NodeId, Capacity>> Out(N), In(N);
  for (const Arc &A : Net.arcs()) {
    Out[A.From][A.To].accumulate(A.Cap);
    In[A.To][A.From].accumulate(A.Cap);
  }

  auto sumExcept = [](const std::map<NodeId, Capacity> &Side, NodeId Skip) {
    CapSum Sum;
    for (const auto &[Other, Cap] : Side)
      if (Other != Skip)
        Sum.add(Cap);
    return Sum;
  };

  // Folds node Gone into node Rep, rebuilding Gone's adjacency onto Rep.
  auto mergeInto = [&](NodeId Rep, NodeId Gone) {
    Parent[Gone] = Rep;
    for (auto &[To, Cap] : Out[Gone]) {
      In[To].erase(Gone);
      if (To == Rep)
        continue;
      Out[Rep][To].accumulate(Cap);
      In[To][Rep].accumulate(Cap);
    }
    for (auto &[From, Cap] : In[Gone]) {
      Out[From].erase(Gone);
      if (From == Rep)
        continue;
      In[Rep][From].accumulate(Cap);
      Out[From][Rep].accumulate(Cap);
    }
    Out[Rep].erase(Gone);
    In[Rep].erase(Gone);
    Out[Gone].clear();
    In[Gone].clear();
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId Ni = 0; Ni != N; ++Ni) {
      if (find(Ni) != Ni)
        continue;
      // Take a snapshot of the successors: mergeInto mutates Out[Ni].
      std::vector<NodeId> Succs;
      for (const auto &[To, Cap] : Out[Ni]) {
        (void)Cap;
        Succs.push_back(To);
      }
      for (NodeId Nj : Succs) {
        if (find(Ni) != Ni)
          break; // Ni itself got merged away.
        if (find(Nj) != Nj || Nj == Ni)
          continue;
        // The merge argument relocates nj to the other side of a cut, so
        // nj must be a free node: never the source or the sink.
        NodeId S = find(Net.source()), T = find(Net.sink());
        if (Nj == S || Nj == T)
          continue;
        auto FwdIt = Out[Ni].find(Nj);
        if (FwdIt == Out[Ni].end())
          continue;
        // Condition 1: c(ni,nj) >= sum of other out-arcs of nj.
        if (!capDominates(FwdIt->second, sumExcept(Out[Nj], Ni), Space))
          continue;
        // Condition 2: c(nj,ni) >= sum of other in-arcs of nj.
        Capacity BackCap = Capacity::finite(LinExpr());
        auto BwdIt = Out[Nj].find(Ni);
        if (BwdIt != Out[Nj].end())
          BackCap = BwdIt->second;
        if (!capDominates(BackCap, sumExcept(In[Nj], Ni), Space))
          continue;
        // Merge nj into ni, preferring source/sink as representative.
        NodeId Rep = Ni, Gone = Nj;
        if (Gone == S || Gone == T)
          std::swap(Rep, Gone);
        mergeInto(Rep, Gone);
        Changed = true;
      }
    }
  }

  SimplifiedNetwork Result;
  Result.NodeMap.assign(N, 0);
  std::vector<NodeId> RepToNew(N, ~0u);
  // Source and sink keep their positions 0 and 1 in the new network.
  RepToNew[find(Net.source())] = Result.Net.source();
  RepToNew[find(Net.sink())] = Result.Net.sink();
  for (unsigned I = 0; I != N; ++I) {
    NodeId Rep = find(I);
    if (RepToNew[Rep] == ~0u)
      RepToNew[Rep] = Result.Net.addNode(Net.label(Rep));
    Result.NodeMap[I] = RepToNew[Rep];
  }
  for (const Arc &A : Net.arcs())
    Result.Net.addArc(Result.NodeMap[A.From], Result.NodeMap[A.To], A.Cap);
  return Result;
}
