#include "polka/label.hpp"

#include <bit>
#include <stdexcept>

namespace hp::polka {

std::optional<RouteLabel> pack_label(const RouteId& route) {
  if (route.value.degree() >= 64) return std::nullopt;
  return RouteLabel{route.value.to_uint64()};
}

RouteLabel pack_label_checked(const RouteId& route) {
  const auto label = pack_label(route);
  if (!label) {
    throw std::domain_error(
        "pack_label_checked: routeID degree >= 64 does not fit a label");
  }
  return *label;
}

RouteId unpack_label(RouteLabel label) {
  return RouteId{gf2::Poly(label.bits)};
}

namespace {

/// Close `acc` into `route` as one label and re-label at `node`.  A
/// closed segment's modulus degree is at most 64, so its CRT solution
/// fits one word.
void close_segment(const gf2::CrtAccumulator& acc, std::uint32_t node,
                   SegmentedRoute& route) {
  route.labels.push_back(RouteLabel{acc.solution_word()});
  route.waypoints.push_back(node);
}

}  // namespace

void SegmentBuilder::transit(std::uint32_t node, std::uint64_t id_bits,
                             int degree, unsigned port) {
  // Every allocated nodeID has degree <= 48 (NodeIdAllocator searches at
  // most 16 degrees past the 32 a 32-bit port count needs), so one
  // always fits a fresh segment and the word-form fold.
  HP_CHECK(degree >= 1 && degree <= 63,
           "SegmentBuilder: nodeID degree outside [1, 63]");
  if (degree_ > 0 && degree_ + degree > 64) {
    close_segment(acc_, node, closed_);
    // Copy-assigning an empty accumulator reuses acc_'s storage.
    static const gf2::CrtAccumulator kEmpty;
    acc_ = kEmpty;
    degree_ = 0;
  }
  acc_.add(port, id_bits);
  degree_ += degree;
}

SegmentedRoute SegmentBuilder::finish(std::uint32_t node,
                                      std::uint64_t id_bits, int degree,
                                      unsigned egress_port,
                                      std::size_t& folds) const {
  HP_CHECK(degree >= 1 && degree <= 63,
           "SegmentBuilder: nodeID degree outside [1, 63]");
  if (std::bit_width(egress_port) > static_cast<unsigned>(degree)) {
    throw std::domain_error(
        "SegmentBuilder: egress port does not fit the last node's degree");
  }
  // Size the copy of the closed segments for what this call appends:
  // one label when the egress joins the open segment (or there is
  // none), else the closed open segment plus the egress label.
  const bool joins = degree_ > 0 && degree_ + degree <= 64;
  const std::size_t cuts = joins || degree_ == 0 ? 0 : 1;
  SegmentedRoute route;
  route.labels.reserve(closed_.labels.size() + 1 + cuts);
  route.labels = closed_.labels;
  if (!closed_.waypoints.empty() || cuts > 0) {
    route.waypoints.reserve(closed_.waypoints.size() + cuts);
    route.waypoints = closed_.waypoints;
  }
  if (joins) {
    route.labels.push_back(
        RouteLabel{acc_.solution_word_with(egress_port, id_bits)});
    ++folds;
    return route;
  }
  // The destination starts a fresh segment: its label only has to
  // satisfy label mod nodeID == egress port, and the port bits do.
  if (degree_ > 0) close_segment(acc_, node, route);
  route.labels.push_back(RouteLabel{egress_port});
  return route;
}

}  // namespace hp::polka
