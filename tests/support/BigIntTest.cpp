//===- tests/support/BigIntTest.cpp - BigInt unit tests -------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace paco;

namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.sign(), 0);
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_EQ(Zero.toInt64(), 0);
}

TEST(BigIntTest, Int64RoundTrip) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                    int64_t(-987654321), INT64_MAX, INT64_MIN}) {
    BigInt B(V);
    ASSERT_TRUE(B.fitsInt64());
    EXPECT_EQ(B.toInt64(), V);
    EXPECT_EQ(B.toString(), std::to_string(V));
  }
}

TEST(BigIntTest, StringRoundTrip) {
  const char *Cases[] = {"0",
                         "1",
                         "-1",
                         "123456789012345678901234567890",
                         "-999999999999999999999999999999999"};
  for (const char *Text : Cases)
    EXPECT_EQ(BigInt::fromString(Text).toString(), Text);
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt A = BigInt::fromString("4294967295"); // 2^32 - 1
  BigInt One(1);
  EXPECT_EQ((A + One).toString(), "4294967296");
  EXPECT_EQ((A + A).toString(), "8589934590");
}

TEST(BigIntTest, MixedSignAddition) {
  BigInt A(100), B(-30);
  EXPECT_EQ((A + B).toInt64(), 70);
  EXPECT_EQ((B + A).toInt64(), 70);
  EXPECT_EQ((A + (-A)).sign(), 0);
  EXPECT_EQ(((-A) + B).toInt64(), -130);
}

TEST(BigIntTest, SubtractionBorrow) {
  BigInt A = BigInt::fromString("18446744073709551616"); // 2^64
  EXPECT_EQ((A - BigInt(1)).toString(), "18446744073709551615");
  EXPECT_EQ((BigInt(1) - A).toString(), "-18446744073709551615");
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt A = BigInt::fromString("123456789123456789");
  BigInt B = BigInt::fromString("987654321987654321");
  EXPECT_EQ((A * B).toString(), "121932631356500531347203169112635269");
  EXPECT_EQ((A * BigInt(0)).sign(), 0);
  EXPECT_EQ(((-A) * B).sign(), -1);
  EXPECT_EQ(((-A) * (-B)).sign(), 1);
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).toInt64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).toInt64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).toInt64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).toInt64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).toInt64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).toInt64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).toInt64(), 1);
}

TEST(BigIntTest, DivisionLarge) {
  BigInt A = BigInt::fromString("121932631356500531347203169112635269");
  BigInt B = BigInt::fromString("123456789123456789");
  EXPECT_EQ((A / B).toString(), "987654321987654321");
  EXPECT_EQ((A % B).sign(), 0);
  BigInt C = A + BigInt(5);
  EXPECT_EQ((C / B).toString(), "987654321987654321");
  EXPECT_EQ((C % B).toInt64(), 5);
}

TEST(BigIntTest, DivModIdentityRandomized) {
  // Property: A == (A/B)*B + A%B and |A%B| < |B| for pseudo-random values.
  uint64_t Seed = 0x9e3779b97f4a7c15ull;
  auto Next = [&Seed]() {
    Seed ^= Seed << 13;
    Seed ^= Seed >> 7;
    Seed ^= Seed << 17;
    return Seed;
  };
  for (int I = 0; I != 200; ++I) {
    BigInt A = BigInt(static_cast<int64_t>(Next())) *
               BigInt(static_cast<int64_t>(Next() % 100000));
    BigInt B(static_cast<int64_t>(Next() % 999983) + 1);
    if (I % 2)
      B = -B;
    if (I % 3)
      A = -A;
    BigInt Quot, Rem;
    BigInt::divMod(A, B, Quot, Rem);
    EXPECT_EQ(Quot * B + Rem, A);
    EXPECT_TRUE(Rem.abs() < B.abs());
  }
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_LT(BigInt(3), BigInt::fromString("99999999999999999999"));
  EXPECT_LT(BigInt::fromString("-99999999999999999999"), BigInt(-3));
  EXPECT_EQ(BigInt(7).compare(BigInt(7)), 0);
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).toInt64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).toInt64(), 0);
  BigInt A = BigInt::fromString("123456789123456789") * BigInt(77);
  BigInt B = BigInt::fromString("123456789123456789") * BigInt(21);
  EXPECT_EQ(BigInt::gcd(A, B).toString(),
            (BigInt::fromString("123456789123456789") * BigInt(7)).toString());
}

TEST(BigIntTest, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt(INT64_MAX).fitsInt64());
  EXPECT_TRUE(BigInt(INT64_MIN).fitsInt64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).fitsInt64());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).fitsInt64());
  EXPECT_TRUE((BigInt(INT64_MIN)).toInt64() == INT64_MIN);
}

TEST(BigIntTest, HashConsistentWithEquality) {
  BigInt A = BigInt::fromString("123456789123456789");
  BigInt B = BigInt::fromString("123456789123456788") + BigInt(1);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

/// Decimal rendering of an __int128, independent of BigInt.
std::string toDecimal(__int128 V) {
  unsigned __int128 Mag = V < 0 ? -static_cast<unsigned __int128>(V)
                                : static_cast<unsigned __int128>(V);
  std::string Digits;
  do {
    Digits.insert(Digits.begin(), static_cast<char>('0' + Mag % 10));
    Mag /= 10;
  } while (Mag != 0);
  return V < 0 ? "-" + Digits : Digits;
}

BigInt fromInt128(__int128 V) { return BigInt::fromString(toDecimal(V)); }

/// Checks that \p Got holds \p Want, in canonical form: equality with a
/// freshly parsed value compares the representation member by member.
void expectValue(const BigInt &Got, __int128 Want, const char *What,
                 __int128 A, __int128 B) {
  SCOPED_TRACE(std::string(What) + " of " + toDecimal(A) + " and " +
               toDecimal(B));
  EXPECT_EQ(Got.toString(), toDecimal(Want));
  BigInt Parsed = fromInt128(Want);
  EXPECT_EQ(Got, Parsed);
  EXPECT_EQ(Got.hash(), Parsed.hash());
  bool Fits = Want >= INT64_MIN && Want <= INT64_MAX;
  EXPECT_EQ(Got.fitsInt64(), Fits);
  if (Fits) {
    EXPECT_EQ(Got.toInt64(), static_cast<int64_t>(Want));
  }
}

TEST(BigIntTest, DifferentialAgainstInt128AcrossTheInlineBoundary) {
  // Operands cluster around the 64-bit boundary between inline and heap
  // magnitudes, so sums, differences and products carry and borrow
  // across it in both directions.
  const __int128 Two64 = static_cast<__int128>(1) << 64;
  const __int128 Anchors[] = {0,
                              1,
                              (static_cast<__int128>(1) << 32) - 1,
                              static_cast<__int128>(1) << 32,
                              INT64_MAX,
                              -static_cast<__int128>(INT64_MIN),
                              Two64 - 1,
                              Two64,
                              Two64 + 1,
                              Two64 << 1,
                              (static_cast<__int128>(1) << 96) - 1,
                              static_cast<__int128>(1) << 100};
  uint64_t Seed = 0x2545f4914f6cdd1dull;
  auto Next = [&Seed]() {
    Seed ^= Seed << 13;
    Seed ^= Seed >> 7;
    Seed ^= Seed << 17;
    return Seed;
  };
  std::vector<__int128> Values;
  for (__int128 Anchor : Anchors)
    for (int Delta = -2; Delta <= 2; ++Delta)
      for (int Sign : {1, -1})
        Values.push_back(Sign * (Anchor + Delta));
  Values.push_back(INT64_MIN);
  for (int I = 0; I != 40; ++I) {
    // Random magnitudes of 1 to 100 bits.
    unsigned Bits = 1 + Next() % 100;
    unsigned __int128 Mag =
        (static_cast<unsigned __int128>(Next()) << 64 | Next()) >>
        (128 - Bits);
    Values.push_back((I % 2 ? -1 : 1) * static_cast<__int128>(Mag));
  }

  for (__int128 A : Values) {
    BigInt BA = fromInt128(A);
    for (__int128 B : Values) {
      BigInt BB = fromInt128(B);
      __int128 Want;
      if (!__builtin_add_overflow(A, B, &Want))
        expectValue(BA + BB, Want, "sum", A, B);
      if (!__builtin_sub_overflow(A, B, &Want))
        expectValue(BA - BB, Want, "difference", A, B);
      if (!__builtin_mul_overflow(A, B, &Want))
        expectValue(BA * BB, Want, "product", A, B);
      if (B != 0) {
        expectValue(BA / BB, A / B, "quotient", A, B);
        expectValue(BA % BB, A % B, "remainder", A, B);
      }
      unsigned __int128 X = A < 0 ? -static_cast<unsigned __int128>(A) : A;
      unsigned __int128 Y = B < 0 ? -static_cast<unsigned __int128>(B) : B;
      while (Y != 0)
        X = std::exchange(Y, X % Y);
      expectValue(BigInt::gcd(BA, BB), static_cast<__int128>(X), "gcd", A, B);
      int WantCmp = (A > B) - (A < B);
      EXPECT_EQ(BA.compare(BB), WantCmp)
          << toDecimal(A) << " vs " << toDecimal(B);
      EXPECT_EQ(BA == BB, A == B);
      EXPECT_EQ(BA < BB, A < B);
    }
  }
}

TEST(BigIntTest, CarryAndBorrowAcrossTheInlineBoundary) {
  BigInt Max64 = BigInt::fromString("18446744073709551615"); // 2^64 - 1
  BigInt Two64 = Max64 + BigInt(1);
  EXPECT_EQ(Two64.toString(), "18446744073709551616");
  EXPECT_EQ(Two64.bitLength(), 65u);
  EXPECT_EQ(Two64 - BigInt(1), Max64);
  EXPECT_EQ(Max64.bitLength(), 64u);
  EXPECT_FALSE(Max64.fitsInt64());
  EXPECT_EQ((-Two64) + BigInt(1), -Max64);
  EXPECT_EQ(Two64 - Max64, BigInt(1));
  EXPECT_EQ(Max64 - Two64, BigInt(-1));
  EXPECT_EQ((Two64 + BigInt(1)) - BigInt(2), Max64);
  EXPECT_EQ(Two64 * Two64 / Two64, Two64);
  EXPECT_EQ((Two64 * Two64 - BigInt(1)) % Two64, Max64);
  EXPECT_EQ(BigInt(INT64_MIN) - BigInt(1), -(BigInt(INT64_MAX) + BigInt(2)));
  EXPECT_EQ(BigInt(INT64_MIN) * BigInt(-1), BigInt(INT64_MAX) + BigInt(1));
  EXPECT_EQ(BigInt(INT64_MIN) / BigInt(-1), BigInt(INT64_MAX) + BigInt(1));
  EXPECT_EQ(Max64 * Max64, Two64 * Two64 - Two64 - Two64 + BigInt(1));
  EXPECT_EQ(BigInt::gcd(Two64 * BigInt(6), Max64 * BigInt(4)), BigInt(12));
  EXPECT_EQ(BigInt(INT64_MIN).abs().toString(), "9223372036854775808");
  EXPECT_EQ(Two64.toDouble(), 18446744073709551616.0);
  EXPECT_EQ((-Max64).toDouble(), -18446744073709551615.0);
}

TEST(BigIntTest, DivisionAddBack) {
  // Operand pairs for which Algorithm D's quotient-digit estimate stays
  // one too large after the second-limb test, so the multiply-subtract
  // borrows and the divisor is added back. In the first pair the
  // estimate starts one too large; in the other two it starts two too
  // large; the last pair hits the add-back in the top of three digits.
  struct Case {
    const char *Num, *Den, *Quot, *Rem;
  } Cases[] = {
      {"39614081257132168796771975171", "9903520314283042199192993793",
       "3", "9903520314283042199192993792"},
      {"79228162495817593519834398720", "18446744078004518915", "4294967293",
       "18446744073709551625"},
      {"79228162495817593523707739437", "18446744078004518915", "4294967293",
       "18446744077582892342"},
      {"730750818665451459101842416413481742049400346232",
       "9903520314283042199192993793", "73786976294838206463",
       "9903520295836298125788862073"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.Num) + " / " + C.Den);
    BigInt Num = BigInt::fromString(C.Num), Den = BigInt::fromString(C.Den);
    BigInt Quot, Rem;
    BigInt::divMod(Num, Den, Quot, Rem);
    EXPECT_EQ(Quot.toString(), C.Quot);
    EXPECT_EQ(Rem.toString(), C.Rem);
    EXPECT_EQ(Quot * Den + Rem, Num);
    BigInt::divMod(-Num, Den, Quot, Rem);
    EXPECT_EQ(Quot.toString(), std::string("-") + C.Quot);
    EXPECT_EQ(Rem.toString(), std::string("-") + C.Rem);
  }
}

TEST(BigIntTest, CopyAndMoveOfHeapValues) {
  BigInt Big = BigInt::fromString("1267650600228229401496703205383"); // 2^100+7
  BigInt Copy(Big);
  EXPECT_EQ(Copy, Big);
  Copy += BigInt(1);
  EXPECT_EQ(Big.toString(), "1267650600228229401496703205383");
  EXPECT_EQ(Copy.toString(), "1267650600228229401496703205384");

  BigInt Moved(std::move(Copy));
  EXPECT_EQ(Moved.toString(), "1267650600228229401496703205384");
  Copy = Big; // a moved-from value takes a new one
  EXPECT_EQ(Copy, Big);

  BigInt Small(5);
  Small = Big; // inline <- heap
  EXPECT_EQ(Small, Big);
  Small = BigInt(5); // heap <- inline
  EXPECT_EQ(Small.toInt64(), 5);
  Moved = std::move(Small); // heap <- moved inline
  EXPECT_EQ(Moved.toInt64(), 5);
  Moved = std::move(Copy); // inline <- moved heap
  EXPECT_EQ(Moved, Big);

  BigInt &Alias = Moved;
  Moved = Alias; // self-assignment
  EXPECT_EQ(Moved, Big);
  Moved = std::move(Alias);
  EXPECT_EQ(Moved, Big);

  std::vector<BigInt> Values;
  for (int I = 0; I != 64; ++I) // reallocations move heap values
    Values.push_back(Big * BigInt(I));
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Values[I], Big * BigInt(I));
}

} // namespace
