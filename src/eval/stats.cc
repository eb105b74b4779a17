#include "eval/stats.h"

namespace cqlopt {

std::string EvalStats::ToString(const SymbolTable& symbols) const {
  std::string out = "derivations=" + std::to_string(derivations) +
                    " inserted=" + std::to_string(inserted) +
                    " subsumed=" + std::to_string(subsumed) +
                    " duplicates=" + std::to_string(duplicates) +
                    " iterations=" + std::to_string(iterations) +
                    (reached_fixpoint ? " fixpoint"
                                      : (aborted ? " ABORTED" : " CAPPED")) +
                    (all_ground ? " all-ground" : " CONSTRAINT-FACTS");
  if (!scc_iterations.empty()) {
    out += " scc-iterations=[";
    for (size_t i = 0; i < scc_iterations.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(scc_iterations[i]);
    }
    out += "]";
  }
  if (cache_hits > 0 || cache_misses > 0) {
    long lookups = cache_hits + cache_misses;
    out += " cache-hits=" + std::to_string(cache_hits) +
           " cache-misses=" + std::to_string(cache_misses) +
           " cache-hit-rate=" +
           std::to_string(lookups > 0 ? 100 * cache_hits / lookups : 0) + "%";
    if (cache_evictions > 0) {
      out += " cache-evictions=" + std::to_string(cache_evictions);
    }
  }
  if (index_probes > 0 || scan_probes > 0) {
    out += " index-probes=" + std::to_string(index_probes) +
           " scan-probes=" + std::to_string(scan_probes) +
           " index-candidates=" + std::to_string(index_candidates) +
           " scan-candidates=" + std::to_string(scan_candidates) +
           " indexed-scan-equivalent=" +
           std::to_string(indexed_scan_equivalent);
  }
  if (interval_probes > 0) {
    out += " interval-probes=" + std::to_string(interval_probes) +
           " interval-candidates=" + std::to_string(interval_candidates) +
           " interval-scan-equivalent=" +
           std::to_string(interval_scan_equivalent) +
           " interval-runs-pruned=" + std::to_string(interval_runs_pruned);
  }
  if (aborted && !abort_point.empty()) {
    out += " abort-point=\"" + abort_point + "\"";
  }
  for (const auto& [pred, count] : facts_per_pred) {
    out += " " + symbols.PredicateName(pred) + "=" + std::to_string(count);
  }
  return out;
}

}  // namespace cqlopt
