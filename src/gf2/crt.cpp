#include "gf2/crt.hpp"

#include <stdexcept>

namespace hp::gf2 {

Poly crt(std::span<const Congruence> system) {
  if (system.empty()) throw std::domain_error("crt: empty system");
  CrtAccumulator acc;
  for (const Congruence& c : system) acc.add(c);
  return acc.solution();
}

Poly crt(const std::vector<Congruence>& system) {
  return crt(std::span<const Congruence>(system));
}

const Poly& CrtAccumulator::solution() const {
  materialize();
  return solution_;
}

const Poly& CrtAccumulator::modulus() const {
  materialize();
  return modulus_;
}

void CrtAccumulator::materialize() const {
  if (!stale_) return;
  solution_ = Poly(fast_solution_.lo) + Poly(fast_solution_.hi).shifted_left(64);
  modulus_ = Poly(fast_modulus_.lo) + Poly(fast_modulus_.hi).shifted_left(64);
  stale_ = false;
}

void CrtAccumulator::spill() {
  materialize();
  wide_ = true;
}

std::optional<fixed::Poly64> CrtAccumulator::fast_fold_k(
    fixed::Poly64 r, fixed::Poly64 m) const {
  const fixed::Poly64 diff = fixed::mod(r, m) ^ fixed::mod(fast_solution_, m);
  const auto inv = fixed::try_inverse(fixed::mod(fast_modulus_, m), m);
  if (!inv) return std::nullopt;
  return fixed::mulmod(diff, *inv, m);
}

std::uint64_t CrtAccumulator::solution_word() const {
  // deg(solution) < deg(modulus) <= 64: the low word holds it all.
  if (wide_ || fast_degree_ > 64) {
    throw std::domain_error("crt: solution does not fit one word");
  }
  return fast_solution_.lo;
}

std::uint64_t CrtAccumulator::solution_word_with(
    std::uint64_t residue_bits, std::uint64_t modulus_bits) const {
  const int dm = fixed::degree(modulus_bits);
  if (dm < 0) throw std::domain_error("crt: zero modulus");
  if (wide_ || fast_degree_ + dm > 64) {
    throw std::domain_error("crt: solution does not fit one word");
  }
  const auto k = fast_fold_k(residue_bits, modulus_bits);
  if (!k) throw std::domain_error("crt: moduli are not pairwise coprime");
  return (fast_solution_ ^ fixed::mul(fast_modulus_, *k)).lo;
}

void CrtAccumulator::add(std::uint64_t residue_bits,
                         std::uint64_t modulus_bits) {
  const int dm = fixed::degree(modulus_bits);
  if (dm < 0) throw std::domain_error("crt: zero modulus");
  if (!wide_ && fast_degree_ + dm <= 127) {
    // Fixed-width fold: every operand stays in one or two words.  The
    // new solution needs no final reduction -- deg(solution) stays
    // below deg(old modulus) + dm == the new modulus degree.
    const auto k = fast_fold_k(residue_bits, modulus_bits);
    if (!k) {
      throw std::domain_error("crt: moduli are not pairwise coprime");
    }
    fast_solution_ ^= fixed::mul(fast_modulus_, *k);
    fast_modulus_ = fixed::mul(fast_modulus_, modulus_bits);
    fast_degree_ += dm;
    stale_ = true;
    return;
  }
  add(Congruence{Poly(residue_bits), Poly(modulus_bits)});
}

void CrtAccumulator::add(const Congruence& c) {
  // Solve x == solution (mod modulus), x == c.residue (mod c.modulus):
  //   x = solution + modulus * k, where
  //   k == (c.residue - solution) * modulus^{-1}  (mod c.modulus).
  const int dm = c.modulus.degree();
  if (dm < 0) throw std::domain_error("crt: zero modulus");

  if (!wide_ && dm <= 63 && fast_degree_ + dm <= 127) {
    // Still fixed-width capable: delegate to the word form.
    const fixed::Poly64 r = c.residue.degree() <= 63
                                ? c.residue.to_uint64()
                                : (c.residue % c.modulus).to_uint64();
    add(r, c.modulus.to_uint64());
    return;
  }

  if (!wide_) spill();
  const Poly diff = (c.residue + solution_) % c.modulus;
  const auto inv = try_inverse_mod(modulus_, c.modulus);
  if (!inv) {
    throw std::domain_error("crt: moduli are not pairwise coprime");
  }
  const Poly k = (diff * *inv) % c.modulus;
  solution_ = solution_ + modulus_ * k;
  modulus_ = modulus_ * c.modulus;
  solution_ = solution_ % modulus_;
}

}  // namespace hp::gf2
