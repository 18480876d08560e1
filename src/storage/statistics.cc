#include "storage/statistics.h"

#include <algorithm>
#include <sstream>

namespace ldl {

double RelationStats::EqConstSelectivity(size_t col) const {
  if (col < distinct.size() && distinct[col] > 0) return 1.0 / distinct[col];
  return cardinality > 0 ? 1.0 / cardinality : 1.0;
}

double RelationStats::EqJoinSelectivity(size_t col,
                                        double other_distinct) const {
  double d1 = (col < distinct.size() && distinct[col] > 0) ? distinct[col]
                                                           : cardinality;
  double d = std::max(d1, other_distinct);
  return d > 0 ? 1.0 / d : 1.0;
}

double RelationStats::FanOut(size_t col) const {
  if (col < distinct.size() && distinct[col] > 0) {
    return cardinality / distinct[col];
  }
  return 1.0;
}

Statistics Statistics::Collect(const Database& db) {
  Statistics stats;
  for (const PredicateId& pred : db.Predicates()) {
    const Relation* rel = db.Find(pred);
    RelationStats rs;
    rs.cardinality = static_cast<double>(rel->size());
    for (size_t n : rel->DistinctCounts()) {
      rs.distinct.push_back(static_cast<double>(n));
    }
    stats.Set(pred, std::move(rs));
  }
  return stats;
}

void Statistics::Set(const PredicateId& pred, RelationStats stats) {
  stats_[pred] = std::move(stats);
}

std::vector<PredicateId> Statistics::Predicates() const {
  std::vector<PredicateId> out;
  out.reserve(stats_.size());
  for (const auto& [pred, rs] : stats_) out.push_back(pred);
  std::sort(out.begin(), out.end());
  return out;
}

const RelationStats& Statistics::Get(const PredicateId& pred) const {
  auto it = stats_.find(pred);
  return it == stats_.end() ? default_stats_ : it->second;
}

std::string Statistics::ToString() const {
  std::ostringstream os;
  for (const auto& [pred, rs] : stats_) {
    os << pred.ToString() << ": card=" << rs.cardinality << " distinct=(";
    for (size_t i = 0; i < rs.distinct.size(); ++i) {
      if (i) os << ", ";
      os << rs.distinct[i];
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace ldl
