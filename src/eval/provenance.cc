#include "eval/provenance.h"

namespace cqlopt {
namespace {

/// Resolves `ref` to its relation, or NotFound when the ref names no stored
/// row. The row index is returned through `ref` validation — callers read
/// the row via the relation's columnar accessors.
Result<const Relation*> Lookup(const Database& db, Relation::FactRef ref) {
  const Relation* rel = db.Find(ref.pred);
  if (rel == nullptr || ref.index >= rel->size()) {
    return Status::NotFound("no such fact: pred " + std::to_string(ref.pred) +
                            " index " + std::to_string(ref.index));
  }
  return rel;
}

Status RenderNode(const Database& db, Relation::FactRef ref,
                  const SymbolTable& symbols, const std::string& prefix,
                  bool is_last, bool is_root, std::string* out, int depth) {
  if (depth > 256) {
    return Status::Internal("derivation tree too deep (cycle?)");
  }
  CQLOPT_ASSIGN_OR_RETURN(const Relation* rel, Lookup(db, ref));
  if (!is_root) {
    *out += prefix;
    *out += is_last ? "`- " : "|- ";
  }
  *out += rel->fact(ref.index).ToString(symbols);
  const std::string& rule_label = rel->rule_label(ref.index);
  if (!rule_label.empty()) *out += "  [" + rule_label + "]";
  *out += "\n";
  std::string child_prefix =
      is_root ? "" : prefix + (is_last ? "   " : "|  ");
  const std::vector<Relation::FactRef>& parents = rel->parents(ref.index);
  for (size_t i = 0; i < parents.size(); ++i) {
    CQLOPT_RETURN_IF_ERROR(RenderNode(db, parents[i], symbols, child_prefix,
                                      i + 1 == parents.size(),
                                      /*is_root=*/false, out, depth + 1));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> RenderDerivationTree(const Database& db,
                                         Relation::FactRef ref,
                                         const SymbolTable& symbols) {
  std::string out;
  CQLOPT_RETURN_IF_ERROR(
      RenderNode(db, ref, symbols, "", /*is_last=*/true, /*is_root=*/true,
                 &out, /*depth=*/0));
  return out;
}

std::optional<Relation::FactRef> FindFactByText(const Database& db,
                                                PredId pred,
                                                const std::string& text,
                                                const SymbolTable& symbols) {
  const Relation* rel = db.Find(pred);
  if (rel == nullptr) return std::nullopt;
  for (size_t i = 0; i < rel->size(); ++i) {
    if (rel->fact(i).ToString(symbols) == text) {
      return Relation::FactRef{pred, i};
    }
  }
  return std::nullopt;
}

}  // namespace cqlopt
