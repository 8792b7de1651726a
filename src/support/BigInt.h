//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integer arithmetic.
///
/// Polyhedral operations (double-description conversion, Fourier-style
/// combinations) and exact max-flow computations can grow coefficients far
/// beyond 64 bits, so every exact-arithmetic layer of the library is built
/// on this type. Nearly all values stay small, though, so the
/// representation is a sign plus a magnitude that lives inline in one
/// 64-bit word while it fits, and in a heap array of 32-bit little-endian
/// limbs only beyond 64 bits. The form is canonical: a magnitude that fits
/// in 64 bits is never held on the heap, and zero always has sign 0, so
/// equality is a plain member-wise comparison and small arithmetic never
/// allocates.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_SUPPORT_BIGINT_H
#define PACO_SUPPORT_BIGINT_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>

namespace paco {

/// Arbitrary-precision signed integer.
///
/// Supports the operations needed by exact rational arithmetic: ring
/// operations, Euclidean division with truncation toward zero, gcd and
/// decimal conversion. All operations are total except division by zero,
/// which asserts.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer.
  BigInt(int64_t Value)
      : Sign(Value < 0 ? -1 : Value > 0),
        // Negate via uint64_t so INT64_MIN does not overflow.
        Small(Value < 0 ? ~static_cast<uint64_t>(Value) + 1
                        : static_cast<uint64_t>(Value)) {}

  BigInt(const BigInt &Other)
      : Sign(Other.Sign), Len(Other.Len), Small(Other.Small) {
    if (Len != 0) {
      Heap = new uint32_t[Len];
      std::memcpy(Heap, Other.Heap, Len * sizeof(uint32_t));
    }
  }
  BigInt(BigInt &&Other) noexcept
      : Sign(Other.Sign), Len(Other.Len), Small(Other.Small),
        Heap(std::exchange(Other.Heap, nullptr)) {
    Other.Sign = 0;
    Other.Len = 0;
    Other.Small = 0;
  }
  BigInt &operator=(const BigInt &Other) {
    if (this != &Other)
      *this = BigInt(Other);
    return *this;
  }
  BigInt &operator=(BigInt &&Other) noexcept {
    if (this != &Other) {
      delete[] Heap;
      Sign = std::exchange(Other.Sign, 0);
      Len = std::exchange(Other.Len, 0);
      Small = std::exchange(Other.Small, 0);
      Heap = std::exchange(Other.Heap, nullptr);
    }
    return *this;
  }
  ~BigInt() { delete[] Heap; }

  /// Parses a decimal string with an optional leading '-'.
  ///
  /// Asserts on malformed input; use this for trusted (test/internal)
  /// strings only.
  static BigInt fromString(const std::string &Text);

  /// \returns true if the value is zero.
  bool isZero() const { return Sign == 0; }
  /// \returns true if the value is strictly negative.
  bool isNegative() const { return Sign < 0; }
  /// \returns true if the value is strictly positive.
  bool isPositive() const { return Sign > 0; }
  /// \returns true if the value is one.
  bool isOne() const { return Sign == 1 && Len == 0 && Small == 1; }

  /// \returns -1, 0 or +1 according to the sign of the value.
  int sign() const { return Sign; }

  /// \returns true if the value fits in int64_t.
  bool fitsInt64() const {
    return Len == 0 && Small <= static_cast<uint64_t>(INT64_MAX) + (Sign < 0);
  }

  /// Converts to int64_t.
  ///
  /// Asserts unless fitsInt64().
  int64_t toInt64() const {
    assert(fitsInt64() && "value does not fit in int64_t");
    return static_cast<int64_t>(Sign < 0 ? ~Small + 1 : Small);
  }

  /// Number of significant bits in the magnitude (0 for zero).
  unsigned bitLength() const;

  /// Nearest-double approximation of the magnitude, split as
  /// `m * 2^Exp` with m in [0.5, 1) (m = 0 and Exp = 0 for zero). Exact
  /// for values of up to 53 significant bits regardless of magnitude, so
  /// callers can recombine mantissas without overflowing double range.
  double frexpMagnitude(int &Exp) const;

  /// Nearest double approximation (+-HUGE_VAL beyond double range).
  double toDouble() const;

  /// Renders the value in decimal.
  std::string toString() const;

  BigInt operator-() const {
    BigInt Result = *this;
    Result.Sign = -Result.Sign;
    return Result;
  }
  BigInt operator+(const BigInt &RHS) const {
    if (Len == 0 && RHS.Len == 0)
      return addSmall(Sign, Small, RHS.Sign, RHS.Small);
    return addSlow(RHS, RHS.Sign);
  }
  BigInt operator-(const BigInt &RHS) const {
    if (Len == 0 && RHS.Len == 0)
      return addSmall(Sign, Small, -RHS.Sign, RHS.Small);
    return addSlow(RHS, -RHS.Sign);
  }
  BigInt operator*(const BigInt &RHS) const {
    if (Len == 0 && RHS.Len == 0) {
      unsigned __int128 Product =
          static_cast<unsigned __int128>(Small) * RHS.Small;
      return fromWide(Sign * RHS.Sign, static_cast<uint64_t>(Product),
                      static_cast<uint64_t>(Product >> 64));
    }
    return mulSlow(RHS);
  }
  /// Quotient truncated toward zero. Asserts if \p RHS is zero.
  BigInt operator/(const BigInt &RHS) const {
    BigInt Quot, Rem;
    divMod(*this, RHS, Quot, Rem);
    return Quot;
  }
  /// Remainder with the sign of the dividend. Asserts if \p RHS is zero.
  BigInt operator%(const BigInt &RHS) const {
    BigInt Quot, Rem;
    divMod(*this, RHS, Quot, Rem);
    return Rem;
  }

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }
  BigInt &operator/=(const BigInt &RHS) { return *this = *this / RHS; }

  bool operator==(const BigInt &RHS) const {
    if (Sign != RHS.Sign || Len != RHS.Len)
      return false;
    return Len == 0 ? Small == RHS.Small
                    : std::memcmp(Heap, RHS.Heap, Len * sizeof(uint32_t)) == 0;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Three-way comparison: negative, zero or positive result.
  int compare(const BigInt &RHS) const {
    if (Sign != RHS.Sign)
      return Sign < RHS.Sign ? -1 : 1;
    int MagCmp = Len == 0 && RHS.Len == 0
                     ? (Small > RHS.Small) - (Small < RHS.Small)
                     : compareMagnitude(RHS);
    return Sign < 0 ? -MagCmp : MagCmp;
  }

  /// \returns the absolute value.
  BigInt abs() const {
    BigInt Result = *this;
    Result.Sign = Result.Sign != 0;
    return Result;
  }

  /// Greatest common divisor; always non-negative, gcd(0, 0) == 0.
  static BigInt gcd(BigInt A, BigInt B);

  /// Computes quotient and remainder in one pass (truncated division).
  static void divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                     BigInt &Rem);

  /// Hash suitable for unordered containers.
  size_t hash() const;

private:
  /// Sign * Mag with an inline magnitude (Sign is ignored for zero).
  static BigInt inlineValue(int Sign, uint64_t Mag) {
    BigInt Result;
    Result.Sign = Mag == 0 ? 0 : Sign;
    Result.Small = Mag;
    return Result;
  }
  /// SignA * A + SignB * B for inline magnitudes.
  static BigInt addSmall(int SignA, uint64_t A, int SignB, uint64_t B) {
    if (SignA == SignB || SignA == 0 || SignB == 0) {
      uint64_t Sum = A + B;
      int SumSign = SignA != 0 ? SignA : SignB;
      return Sum < A ? fromWide(SumSign, Sum, 1) : inlineValue(SumSign, Sum);
    }
    return A >= B ? inlineValue(SignA, A - B) : inlineValue(SignB, B - A);
  }
  /// Sign * (Hi * 2^64 + Lo).
  static BigInt fromWide(int Sign, uint64_t Lo, uint64_t Hi) {
    if (Hi == 0)
      return inlineValue(Sign, Lo);
    const uint32_t Limbs[4] = {
        static_cast<uint32_t>(Lo), static_cast<uint32_t>(Lo >> 32),
        static_cast<uint32_t>(Hi), static_cast<uint32_t>(Hi >> 32)};
    return fromLimbs(Sign, Limbs, 4);
  }
  /// Sign * the little-endian limbs \p Limbs[0, N), in canonical form.
  static BigInt fromLimbs(int Sign, const uint32_t *Limbs, size_t N);

  /// Limb arithmetic, for operands of which at least one is on the heap.
  /// addSlow adds RHSSign * |RHS|, so subtraction needs no negated copy.
  BigInt addSlow(const BigInt &RHS, int RHSSign) const;
  BigInt mulSlow(const BigInt &RHS) const;
  /// Compares magnitudes only, ignoring sign.
  int compareMagnitude(const BigInt &RHS) const;

  /// The magnitude as trimmed little-endian limbs; an inline value is
  /// spilled into \p Buf, which must outlive the returned span.
  std::span<const uint32_t> limbs(uint32_t (&Buf)[2]) const;

  int32_t Sign = 0;
  /// Limb count of a heap magnitude (always > 2); 0 while inline.
  uint32_t Len = 0;
  /// The magnitude while Len == 0; 0 while on the heap.
  uint64_t Small = 0;
  /// Len limbs with a nonzero top limb while Len > 0; null while inline.
  uint32_t *Heap = nullptr;
};

// Constraint rows, generators and capacities are vectors of BigInt, so its
// size sets most of the analysis's memory footprint.
static_assert(sizeof(BigInt) <= 32, "BigInt must stay within 32 bytes");

} // namespace paco

#endif // PACO_SUPPORT_BIGINT_H
