#include "scenario/protection.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace hp::scenario {

std::optional<std::size_t> first_live_backup(
    std::span<const BackupRoute> backups, const std::vector<char>& link_down) {
  const auto live = std::ranges::find_if(backups, [&](const BackupRoute& b) {
    return std::ranges::none_of(b.path, [&](netsim::LinkIndex l) {
      return l < link_down.size() && link_down[l] != 0;
    });
  });
  if (live == backups.end()) return std::nullopt;
  return static_cast<std::size_t>(live - backups.begin());
}

void check_installable(std::span<const BackupRoute> backups) {
  for (const BackupRoute& b : backups) {
    HP_CHECK(!b.segments.labels.empty(),
             "check_installable: backup route without labels");
    HP_CHECK(!b.path.empty(),
             "check_installable: backup route without a link path");
  }
}

}  // namespace hp::scenario
