#include "scenario/protection.hpp"

#include <algorithm>
#include <utility>

#include "core/contracts.hpp"

namespace hp::scenario {

void BackupTable::install(PairKey pair, std::vector<BackupRoute> backups) {
  pairs_.erase(pair);
  if (backups.empty()) return;
  for (const BackupRoute& b : backups) {
    // A hitless swap copies these fields straight into the live route
    // table; an empty label list would install an unroutable "backup"
    // that only surfaces packets later, so reject it at install time.
    HP_CHECK(!b.segments.labels.empty(),
             "BackupTable::install: backup route without labels");
    HP_CHECK(!b.path.empty(), "BackupTable::install: backup route "
                              "without a link path");
  }
  pairs_.emplace(pair, std::move(backups));
}

std::vector<BackupRoute> BackupTable::take(PairKey pair) {
  auto node = pairs_.extract(pair);
  return node.empty() ? std::vector<BackupRoute>{} : std::move(node.mapped());
}

void BackupTable::clear() { pairs_.clear(); }

const BackupRoute* BackupTable::live_backup(
    PairKey pair, const std::vector<char>& link_down) const {
  const auto it = pairs_.find(pair);
  if (it == pairs_.end()) return nullptr;
  const auto live = std::ranges::find_if(
      it->second, [&](const BackupRoute& b) {
        return std::ranges::none_of(b.path, [&](netsim::LinkIndex l) {
          return l < link_down.size() && link_down[l] != 0;
        });
      });
  return live == it->second.end() ? nullptr : &*live;
}

}  // namespace hp::scenario
