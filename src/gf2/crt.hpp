#pragma once
// Chinese Remainder Theorem over GF(2)[t].
//
// This is the heart of PolKA's route encoding: given core nodes with
// pairwise-coprime nodeIDs m_i and desired output-port polynomials r_i,
// the routeID is the unique polynomial R with deg R < deg(prod m_i) and
// R mod m_i == r_i for every hop.

#include <span>
#include <vector>

#include "gf2/poly.hpp"
#include "gf2/poly64.hpp"

namespace hp::gf2 {

/// One congruence R == residue (mod modulus).
struct Congruence {
  Poly residue;
  Poly modulus;
};

/// Solve a CRT system.  Requirements (checked, throws std::domain_error):
/// at least one congruence, every modulus nonzero with pairwise GCD 1,
/// and deg(residue) < deg(modulus) is *not* required (residues are
/// reduced first).  Returns the unique solution of degree less than the
/// degree of the product of the moduli.
[[nodiscard]] Poly crt(std::span<const Congruence> system);

/// Convenience overload.
[[nodiscard]] Poly crt(const std::vector<Congruence>& system);

/// Incremental CRT combiner: fold congruences in one at a time.  Useful
/// when building a routeID hop by hop (e.g. extending a tunnel, or
/// descending a shortest-path tree in the scenario route compiler).
///
/// While the accumulated modulus fits 128 coefficient bits the state
/// lives in the fixed-width gf2::fixed kernels -- no heap allocation
/// per fold -- and spills to arbitrary-degree Poly arithmetic past that
/// bound.  The Poly views returned by solution()/modulus() are
/// materialized lazily from the fixed state.  Copies are cheap while on
/// the fast path, which the tree compiler relies on (one copy per DFS
/// descent).
class CrtAccumulator {
 public:
  /// Current combined solution (zero before any congruence is added).
  [[nodiscard]] const Poly& solution() const;

  /// Product of the moduli folded so far (one initially).
  [[nodiscard]] const Poly& modulus() const;

  /// Fold in one more congruence; the new modulus must be coprime with
  /// the accumulated product (throws std::domain_error otherwise).
  void add(const Congruence& c);

  /// Word form of add for congruences whose modulus fits 64
  /// coefficient bits (every PolKA nodeID does): identical semantics,
  /// but the hot path never materializes a Poly operand.  modulus_bits
  /// must be nonzero (throws std::domain_error).
  void add(std::uint64_t residue_bits, std::uint64_t modulus_bits);

  /// For a system whose combined modulus has degree at most 64, so the
  /// solution fits one coefficient word: solution() as that word, and
  /// solution_word_with the solution with one more congruence folded
  /// in, without mutating this accumulator (the route compiler's
  /// per-destination step).  No Poly is built.  Throws
  /// std::domain_error when the degree would pass 64 (and, like add,
  /// on a zero or non-coprime modulus).
  [[nodiscard]] std::uint64_t solution_word() const;
  [[nodiscard]] std::uint64_t solution_word_with(
      std::uint64_t residue_bits, std::uint64_t modulus_bits) const;

 private:
  /// Fixed-width fold scalar: the k with new solution == solution XOR
  /// modulus * k; nullopt when the modulus is not coprime.  Only valid
  /// while !wide_; r and m are the congruence's words, m nonzero.
  [[nodiscard]] std::optional<fixed::Poly64> fast_fold_k(
      fixed::Poly64 r, fixed::Poly64 m) const;

  void materialize() const;
  void spill();

  // Fixed-width state, authoritative while wide_ == false.
  fixed::Poly128 fast_solution_{};
  fixed::Poly128 fast_modulus_{1, 0};
  int fast_degree_ = 0;  ///< degree of fast_modulus_
  bool wide_ = false;

  // Wide state once spilled; before that, a lazily refreshed view of
  // the fixed-width words (stale_ marks it out of date).
  mutable Poly solution_{};
  mutable Poly modulus_{1};
  mutable bool stale_ = false;
};

}  // namespace hp::gf2
