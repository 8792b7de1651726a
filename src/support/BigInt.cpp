//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <memory>

using namespace paco;

namespace {

/// Zero-filled working storage for one limb array: on the stack for the
/// operand sizes the analyses produce, on the heap beyond.
class LimbBuffer {
public:
  explicit LimbBuffer(size_t N)
      : Big(N > std::size(Local) ? std::make_unique<uint32_t[]>(N)
                                 : nullptr) {}
  uint32_t *data() { return Big ? Big.get() : Local; }

private:
  uint32_t Local[24] = {};
  std::unique_ptr<uint32_t[]> Big;
};

int compareLimbs(std::span<const uint32_t> A, std::span<const uint32_t> B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

} // namespace

BigInt BigInt::fromLimbs(int Sign, const uint32_t *Limbs, size_t N) {
  while (N != 0 && Limbs[N - 1] == 0)
    --N;
  if (N <= 2) {
    uint64_t Mag = N == 0 ? 0 : Limbs[0];
    if (N == 2)
      Mag |= static_cast<uint64_t>(Limbs[1]) << 32;
    return inlineValue(Sign, Mag);
  }
  BigInt Result;
  Result.Sign = Sign;
  Result.Len = static_cast<uint32_t>(N);
  Result.Heap = new uint32_t[N];
  std::memcpy(Result.Heap, Limbs, N * sizeof(uint32_t));
  return Result;
}

std::span<const uint32_t> BigInt::limbs(uint32_t (&Buf)[2]) const {
  if (Len != 0)
    return {Heap, Len};
  Buf[0] = static_cast<uint32_t>(Small);
  Buf[1] = static_cast<uint32_t>(Small >> 32);
  return {Buf, Buf[1] != 0 ? 2u : Buf[0] != 0 ? 1u : 0u};
}

BigInt BigInt::fromString(const std::string &Text) {
  assert(!Text.empty() && "empty decimal string");
  size_t Pos = 0;
  bool Negative = false;
  if (Text[0] == '-') {
    Negative = true;
    Pos = 1;
    assert(Text.size() > 1 && "sign without digits");
  }
  BigInt Result;
  BigInt Ten(10);
  for (; Pos != Text.size(); ++Pos) {
    assert(Text[Pos] >= '0' && Text[Pos] <= '9' && "non-digit in decimal");
    Result = Result * Ten + BigInt(Text[Pos] - '0');
  }
  return Negative ? -Result : Result;
}

unsigned BigInt::bitLength() const {
  if (Len == 0)
    return 64 - std::countl_zero(Small);
  return Len * 32 - std::countl_zero(Heap[Len - 1]);
}

double BigInt::frexpMagnitude(int &Exp) const {
  if (isZero()) {
    Exp = 0;
    return 0.0;
  }
  // Collect the top 64 bits of the magnitude; anything below only matters
  // at round-to-nearest ties, which a 64->53 bit conversion resolves the
  // same way for all but adversarially constructed inputs.
  unsigned Bits = bitLength();
  uint64_t Top;
  if (Len == 0) {
    Top = Small << (64 - Bits);
  } else {
    // The 64 bits from Low upward span at most three limbs.
    unsigned Low = Bits - 64, L = Low / 32;
    unsigned __int128 Window =
        Heap[L] | static_cast<unsigned __int128>(Heap[L + 1]) << 32;
    if (L + 2 < Len)
      Window |= static_cast<unsigned __int128>(Heap[L + 2]) << 64;
    Top = static_cast<uint64_t>(Window >> (Low % 32));
  }
  // Top holds the leading 64 bits, i.e. magnitude ~= Top * 2^(Bits-64);
  // fold Top into [0.5, 1) so the caller combines exponents separately.
  Exp = static_cast<int>(Bits);
  return std::ldexp(static_cast<double>(Top), -64);
}

double BigInt::toDouble() const {
  int Exp;
  double Mant = frexpMagnitude(Exp);
  double Mag = std::ldexp(Mant, Exp); // +-inf beyond double range
  return Sign < 0 ? -Mag : Mag;
}

std::string BigInt::toString() const {
  if (Len == 0)
    return (Sign < 0 ? "-" : "") + std::to_string(Small);
  // Repeated division by 10^9 produces nine decimal digits per step.
  LimbBuffer Buf(Len);
  uint32_t *Mag = Buf.data();
  std::memcpy(Mag, Heap, Len * sizeof(uint32_t));
  size_t N = Len;
  std::string Digits;
  while (N != 0) {
    uint64_t Rem = 0;
    for (size_t I = N; I-- > 0;) {
      uint64_t Cur = (Rem << 32) | Mag[I];
      Mag[I] = static_cast<uint32_t>(Cur / 1000000000u);
      Rem = Cur % 1000000000u;
    }
    while (N != 0 && Mag[N - 1] == 0)
      --N;
    for (int I = 0; I != 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Rem % 10));
      Rem /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Sign < 0)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

BigInt BigInt::addSlow(const BigInt &RHS, int RHSSign) const {
  if (RHSSign == 0)
    return *this;
  if (Sign == 0) {
    BigInt Result = RHS;
    Result.Sign = RHSSign;
    return Result;
  }
  uint32_t BufA[2], BufB[2];
  std::span<const uint32_t> A = limbs(BufA), B = RHS.limbs(BufB);
  int ResultSign = Sign;
  if (Sign == RHSSign) {
    if (A.size() < B.size())
      std::swap(A, B);
    LimbBuffer Out(A.size() + 1);
    uint32_t *Sum = Out.data();
    uint64_t Carry = 0;
    for (size_t I = 0; I != A.size(); ++I) {
      Carry += static_cast<uint64_t>(A[I]) + (I < B.size() ? B[I] : 0);
      Sum[I] = static_cast<uint32_t>(Carry);
      Carry >>= 32;
    }
    Sum[A.size()] = static_cast<uint32_t>(Carry);
    return fromLimbs(ResultSign, Sum, A.size() + 1);
  }
  int Cmp = compareLimbs(A, B);
  if (Cmp == 0)
    return BigInt();
  if (Cmp < 0) {
    std::swap(A, B);
    ResultSign = RHSSign;
  }
  LimbBuffer Out(A.size());
  uint32_t *Diff = Out.data();
  uint64_t Borrow = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    uint64_t Cur = static_cast<uint64_t>(A[I]) - (I < B.size() ? B[I] : 0) -
                   Borrow;
    Diff[I] = static_cast<uint32_t>(Cur);
    Borrow = Cur >> 63; // wrapped below zero
  }
  return fromLimbs(ResultSign, Diff, A.size());
}

BigInt BigInt::mulSlow(const BigInt &RHS) const {
  if (Sign == 0 || RHS.Sign == 0)
    return BigInt();
  uint32_t BufA[2], BufB[2];
  std::span<const uint32_t> A = limbs(BufA), B = RHS.limbs(BufB);
  LimbBuffer Out(A.size() + B.size());
  uint32_t *Product = Out.data();
  for (size_t I = 0; I != A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J != B.size(); ++J) {
      Carry += static_cast<uint64_t>(A[I]) * B[J] + Product[I + J];
      Product[I + J] = static_cast<uint32_t>(Carry);
      Carry >>= 32;
    }
    Product[I + B.size()] = static_cast<uint32_t>(Carry);
  }
  return fromLimbs(Sign * RHS.Sign, Product, A.size() + B.size());
}

int BigInt::compareMagnitude(const BigInt &RHS) const {
  uint32_t BufA[2], BufB[2];
  return compareLimbs(limbs(BufA), RHS.limbs(BufB));
}

void BigInt::divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                    BigInt &Rem) {
  assert(!Den.isZero() && "division by zero");
  // Every path reads the operands before it writes a result: Quot or Rem
  // may be one of them.
  int QuotSign = Num.Sign * Den.Sign;
  if (Num.Len == 0 && Den.Len == 0) {
    uint64_t Q = Num.Small / Den.Small, R = Num.Small % Den.Small;
    int RemSign = Num.Sign;
    Quot = inlineValue(QuotSign, Q);
    Rem = inlineValue(RemSign, R);
    return;
  }
  uint32_t BufU[2], BufV[2];
  std::span<const uint32_t> U = Num.limbs(BufU), V = Den.limbs(BufV);
  size_t M = U.size(), N = V.size();
  if (compareLimbs(U, V) < 0) {
    BigInt R = Num;
    Quot = BigInt();
    Rem = std::move(R);
    return;
  }
  LimbBuffer QuotBuf(M - N + 1);
  uint32_t *Q = QuotBuf.data();
  if (N == 1) {
    // Single-limb divisor: one pass of schoolbook short division.
    uint64_t Carry = 0;
    for (size_t I = M; I-- > 0;) {
      uint64_t Cur = (Carry << 32) | U[I];
      Q[I] = static_cast<uint32_t>(Cur / V[0]);
      Carry = Cur % V[0];
    }
    BigInt R = inlineValue(Num.Sign, Carry);
    Quot = fromLimbs(QuotSign, Q, M);
    Rem = std::move(R);
    return;
  }

  // Knuth's Algorithm D (TAOCP vol. 2, 4.3.1), in base 2^32. Normalize so
  // the divisor's top limb has its high bit set; each quotient digit's
  // two-limb estimate is then at most two too large, the test against the
  // divisor's second limb removes all but (rarely) one of that excess,
  // and the multiply-subtract's borrow signals the last one (add back).
  constexpr uint64_t Base = uint64_t(1) << 32;
  unsigned Shift = std::countl_zero(V[N - 1]);
  auto ShiftedLimb = [Shift](uint32_t Hi, uint32_t Lo) {
    return static_cast<uint32_t>(
        ((static_cast<uint64_t>(Hi) << 32) | Lo) >> (32 - Shift));
  };
  LimbBuffer VnBuf(N), UnBuf(M + 1);
  uint32_t *Vn = VnBuf.data(), *Un = UnBuf.data();
  for (size_t I = N - 1; I != 0; --I)
    Vn[I] = ShiftedLimb(V[I], V[I - 1]);
  Vn[0] = V[0] << Shift;
  Un[M] = ShiftedLimb(0, U[M - 1]);
  for (size_t I = M - 1; I != 0; --I)
    Un[I] = ShiftedLimb(U[I], U[I - 1]);
  Un[0] = U[0] << Shift;

  for (size_t J = M - N + 1; J-- > 0;) {
    uint64_t Top = (static_cast<uint64_t>(Un[J + N]) << 32) | Un[J + N - 1];
    uint64_t QHat = Top / Vn[N - 1], RHat = Top % Vn[N - 1];
    while (QHat >= Base ||
           QHat * Vn[N - 2] > ((RHat << 32) | Un[J + N - 2])) {
      --QHat;
      RHat += Vn[N - 1];
      if (RHat >= Base)
        break;
    }
    // Un[J .. J+N] -= QHat * Vn, tracking the borrow as a signed word.
    int64_t Borrow = 0, Cur = 0;
    for (size_t I = 0; I != N; ++I) {
      uint64_t P = QHat * Vn[I];
      Cur = static_cast<int64_t>(Un[I + J]) - Borrow -
            static_cast<int64_t>(P & 0xffffffffu);
      Un[I + J] = static_cast<uint32_t>(Cur);
      Borrow = static_cast<int64_t>(P >> 32) - (Cur >> 32);
    }
    Cur = static_cast<int64_t>(Un[J + N]) - Borrow;
    Un[J + N] = static_cast<uint32_t>(Cur);
    if (Cur < 0) {
      // QHat was one too large: add the divisor back once.
      --QHat;
      uint64_t Carry = 0;
      for (size_t I = 0; I != N; ++I) {
        Carry += static_cast<uint64_t>(Un[I + J]) + Vn[I];
        Un[I + J] = static_cast<uint32_t>(Carry);
        Carry >>= 32;
      }
      Un[J + N] += static_cast<uint32_t>(Carry);
    }
    Q[J] = static_cast<uint32_t>(QHat);
  }
  // Unnormalize the remainder in place.
  for (size_t I = 0; I != N; ++I)
    Un[I] = static_cast<uint32_t>(
        ((static_cast<uint64_t>(Un[I + 1]) << 32) | Un[I]) >> Shift);
  BigInt R = fromLimbs(Num.Sign, Un, N);
  Quot = fromLimbs(QuotSign, Q, M - N + 1);
  Rem = std::move(R);
}

BigInt BigInt::gcd(BigInt A, BigInt B) {
  // Euclid on limbs until both magnitudes fit in a word.
  while (A.Len != 0 || B.Len != 0) {
    if (B.isZero())
      return A.abs();
    A = A % B;
    std::swap(A, B);
  }
  // Binary gcd on the words.
  uint64_t X = A.Small, Y = B.Small;
  if (X == 0 || Y == 0)
    return inlineValue(1, X | Y);
  int Shift = std::countr_zero(X | Y);
  X >>= std::countr_zero(X);
  do {
    Y >>= std::countr_zero(Y);
    if (X > Y)
      std::swap(X, Y);
    Y -= X;
  } while (Y != 0);
  return inlineValue(1, X << Shift);
}

size_t BigInt::hash() const {
  uint32_t Buf[2];
  size_t Result = static_cast<size_t>(Sign + 1);
  for (uint32_t Limb : limbs(Buf))
    Result = Result * 1000003u + Limb;
  return Result;
}
