//===- poly/DoubleDescription.cpp - Chernikova / DD conversion -----------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "poly/DoubleDescription.h"

#include "obs/Stats.h"

#include <bit>
#include <cassert>

using namespace paco;

namespace {
// Registered at static-init time (single-threaded) so snapshot
// emission order stays deterministic across racy first touches.
obs::Counter &Halfspaces =
    obs::StatsRegistry::global().counter("poly.dd_halfspaces");
obs::Counter &RayCombinations =
    obs::StatsRegistry::global().counter("poly.dd_ray_combinations");
obs::Counter &AdjacencyRejects =
    obs::StatsRegistry::global().counter("poly.dd_adjacency_rejects");
} // namespace

BigInt paco::dotProduct(const std::vector<BigInt> &A,
                        const std::vector<BigInt> &B) {
  assert(A.size() == B.size() && "dot product dimension mismatch");
  BigInt Result;
  for (size_t I = 0; I != A.size(); ++I)
    if (!A[I].isZero() && !B[I].isZero())
      Result += A[I] * B[I];
  return Result;
}

void paco::normalizeVector(std::vector<BigInt> &V) {
  BigInt Common;
  for (const BigInt &X : V) {
    Common = BigInt::gcd(Common, X);
    if (Common.isOne())
      return;
  }
  if (Common.isZero() || Common.isOne())
    return;
  for (BigInt &X : V)
    X = X / Common;
}

ConeBuilder::ConeBuilder(unsigned Dim) : Dim(Dim) {
  Lines.reserve(Dim);
  for (unsigned I = 0; I != Dim; ++I) {
    std::vector<BigInt> Unit(Dim);
    Unit[I] = BigInt(1);
    Lines.push_back(std::move(Unit));
  }
}

void ConeBuilder::pushSatBit(std::vector<uint64_t> &Row,
                             bool Saturates) const {
  unsigned Word = NumProcessed / 64;
  if (Word == Row.size())
    Row.push_back(0);
  if (Saturates)
    Row[Word] |= uint64_t(1) << (NumProcessed % 64);
}

void ConeBuilder::addInequality(const std::vector<BigInt> &Normal) {
  assert(Normal.size() == Dim && "halfspace normal has wrong dimension");
  Halfspaces.add();
  // Case 1: some line is not orthogonal to the new halfspace. That line
  // leaves the lineality space: the direction pointing into the halfspace
  // becomes an extreme ray, and every other generator is combined with it
  // so it saturates the new constraint. No combinatorial work is needed.
  for (size_t PivotIdx = 0; PivotIdx != Lines.size(); ++PivotIdx) {
    BigInt D0 = dotProduct(Normal, Lines[PivotIdx]);
    if (D0.isZero())
      continue;
    std::vector<BigInt> Pivot = std::move(Lines[PivotIdx]);
    Lines.erase(Lines.begin() + static_cast<long>(PivotIdx));
    if (D0.isNegative()) {
      for (BigInt &X : Pivot)
        X = -X;
      D0 = -D0;
    }
    for (std::vector<BigInt> &Line : Lines) {
      BigInt D = dotProduct(Normal, Line);
      if (D.isZero())
        continue;
      for (size_t I = 0; I != Line.size(); ++I)
        Line[I] = D0 * Line[I] - D * Pivot[I];
      normalizeVector(Line);
    }
    for (size_t R = 0; R != Rays.size(); ++R) {
      BigInt D = dotProduct(Normal, Rays[R]);
      if (!D.isZero()) {
        // Ray + multiple of a line stays in the cone; D0 > 0 keeps the
        // combination a positive multiple of the original ray direction.
        for (size_t I = 0; I != Rays[R].size(); ++I)
          Rays[R][I] = D0 * Rays[R][I] - D * Pivot[I];
        normalizeVector(Rays[R]);
      }
      pushSatBit(Sat[R], true);
    }
    // The pivot saturates every previously processed constraint (it was a
    // line, and lines are orthogonal to all processed normals) but not the
    // new one.
    std::vector<uint64_t> PivotSat(NumProcessed / 64 + 1, ~uint64_t(0));
    // Clear the bits at and above NumProcessed in the last word; the new
    // constraint's bit (exactly bit NumProcessed) stays 0.
    unsigned Tail = NumProcessed % 64;
    PivotSat.back() = Tail == 0 ? 0 : (uint64_t(1) << Tail) - 1;
    Rays.push_back(std::move(Pivot));
    Sat.push_back(std::move(PivotSat));
    ++NumProcessed;
    return;
  }

  // Case 2: all lines are orthogonal; split the rays by the sign of their
  // product with the normal and combine adjacent (+,-) pairs.
  std::vector<BigInt> Dots(Rays.size());
  std::vector<size_t> Pos, Neg;
  for (size_t R = 0; R != Rays.size(); ++R) {
    Dots[R] = dotProduct(Normal, Rays[R]);
    if (Dots[R].isPositive())
      Pos.push_back(R);
    else if (Dots[R].isNegative())
      Neg.push_back(R);
  }
  if (Neg.empty()) {
    for (size_t R = 0; R != Rays.size(); ++R)
      pushSatBit(Sat[R], Dots[R].isZero());
    ++NumProcessed;
    return;
  }

  std::vector<std::vector<BigInt>> NewRays;
  std::vector<std::vector<uint64_t>> NewSat;
  // Two extreme rays span a 2-face only if the constraints they both
  // saturate have rank (Dim - |Lines|) - 2, so fewer common saturations
  // than that rule a pair out before the O(rays) cover scan.
  int MinCommon = static_cast<int>(Dim - Lines.size()) - 2;
  uint64_t Rejects = 0;
  for (size_t P : Pos) {
    for (size_t N : Neg) {
      int Common = 0;
      for (size_t W = 0; W != Sat[P].size(); ++W)
        Common += std::popcount(Sat[P][W] & Sat[N][W]);
      if (Common < MinCommon) {
        ++Rejects;
        continue;
      }
      if (!rayPairAdjacent(P, N))
        continue;
      std::vector<BigInt> Combined(Rays[P].size());
      // Dots[P] > 0 and Dots[N] < 0, so both source rays enter with
      // positive weight and the result saturates the new constraint.
      for (size_t I = 0; I != Combined.size(); ++I)
        Combined[I] = Dots[P] * Rays[N][I] - Dots[N] * Rays[P][I];
      normalizeVector(Combined);
      std::vector<uint64_t> CombinedSat(NumProcessed / 64 + 1, 0);
      for (size_t W = 0; W != Sat[P].size(); ++W)
        CombinedSat[W] = Sat[P][W] & Sat[N][W];
      CombinedSat[NumProcessed / 64] |= uint64_t(1) << (NumProcessed % 64);
      NewRays.push_back(std::move(Combined));
      NewSat.push_back(std::move(CombinedSat));
    }
  }
  std::vector<std::vector<BigInt>> KeptRays;
  std::vector<std::vector<uint64_t>> KeptSat;
  for (size_t R = 0; R != Rays.size(); ++R) {
    if (Dots[R].isNegative())
      continue;
    KeptSat.push_back(std::move(Sat[R]));
    pushSatBit(KeptSat.back(), Dots[R].isZero());
    KeptRays.push_back(std::move(Rays[R]));
  }
  RayCombinations.add(NewRays.size());
  AdjacencyRejects.add(Rejects);
  for (size_t I = 0; I != NewRays.size(); ++I) {
    KeptRays.push_back(std::move(NewRays[I]));
    KeptSat.push_back(std::move(NewSat[I]));
  }
  Rays = std::move(KeptRays);
  Sat = std::move(KeptSat);
  ++NumProcessed;
}

bool ConeBuilder::rayPairAdjacent(size_t I, size_t J) const {
  // Combinatorial adjacency: rays I and J are adjacent iff no third ray
  // saturates every constraint they both saturate. Word-parallel: ray R
  // fails to cover iff some common-saturation bit is missing from R.
  const std::vector<uint64_t> &SatI = Sat[I], &SatJ = Sat[J];
  for (size_t R = 0; R != Rays.size(); ++R) {
    if (R == I || R == J)
      continue;
    const std::vector<uint64_t> &SatR = Sat[R];
    bool Covers = true;
    for (size_t W = 0; W != SatI.size() && Covers; ++W)
      if ((SatI[W] & SatJ[W]) & ~SatR[W])
        Covers = false;
    if (Covers)
      return false;
  }
  return true;
}

ConeGenerators paco::coneFromHalfspaces(
    unsigned Dim, const std::vector<std::vector<BigInt>> &Inequalities,
    const std::vector<std::vector<BigInt>> &Equalities) {
  ConeBuilder State(Dim);
  for (const std::vector<BigInt> &E : Equalities) {
    assert(E.size() == Dim && "equality has wrong dimension");
    std::vector<BigInt> Neg(E.size());
    for (size_t I = 0; I != E.size(); ++I)
      Neg[I] = -E[I];
    State.addInequality(E);
    State.addInequality(Neg);
  }
  for (const std::vector<BigInt> &I : Inequalities)
    State.addInequality(I);
  return std::move(State).takeResult();
}
