#include "kanon/algo/agglomerative.h"

#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/core/engine_args.h"
#include "kanon/common/check.h"

namespace kanon {

void LeaveOneOutClosures(const Dataset& dataset,
                         const GeneralizationScheme& scheme,
                         const std::vector<uint32_t>& rows,
                         std::vector<SetId>* out) {
  const size_t len = rows.size();
  const size_t r = scheme.num_attributes();
  KANON_CHECK(len >= 2, "leave-one-out needs at least two rows");
  out->resize(len * r);
  // Row p is prefix(p) ⊔ suffix(p + 1), prefix(q) being the closure of
  // rows[0..q) and suffix(q) that of rows[q..len). The backward pass leaves
  // suffix(p + 1) in row p for p < len − 1; the forward pass grows the
  // prefix in the last row, which it finally holds as prefix(len − 1).
  SetId* const rows_out = out->data();
  SetId* const prefix = rows_out + (len - 1) * r;
  for (size_t j = 0; j < r; ++j) {
    rows_out[(len - 2) * r + j] =
        scheme.hierarchy(j).LeafOf(dataset.at(rows[len - 1], j));
  }
  for (size_t q = len - 2; q >= 1; --q) {
    for (size_t j = 0; j < r; ++j) {
      rows_out[(q - 1) * r + j] = scheme.hierarchy(j).JoinValue(
          rows_out[q * r + j], dataset.at(rows[q], j));
    }
  }
  for (size_t j = 0; j < r; ++j) {
    prefix[j] = scheme.hierarchy(j).LeafOf(dataset.at(rows[0], j));
  }
  for (size_t p = 1; p + 1 < len; ++p) {
    for (size_t j = 0; j < r; ++j) {
      const Hierarchy& h = scheme.hierarchy(j);
      rows_out[p * r + j] = h.Join(prefix[j], rows_out[p * r + j]);
      prefix[j] = h.JoinValue(prefix[j], dataset.at(rows[p], j));
    }
  }
}

namespace {

template <DistanceFunction F>
Result<Clustering> Run(const Dataset& dataset, const PrecomputedLoss& loss,
                       size_t k, const AgglomerativeOptions& options) {
  return internal::AgglomerativeEngine<F>(dataset, loss, k, options).Run();
}

}  // namespace

// The library's one switch on the DistanceFunction enum: each case
// instantiates the engine (agglomerative_engine.h) for its distance, so
// every per-pair decision inlines.
Result<Clustering> AgglomerativeCluster(const Dataset& dataset,
                                        const PrecomputedLoss& loss, size_t k,
                                        const AgglomerativeOptions& options) {
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  const size_t n = dataset.num_rows();
  if (k == 1) {
    // Identity clustering: nothing to anonymize.
    Clustering out;
    out.clusters.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      out.clusters.push_back({i});
    }
    return out;
  }
  switch (options.distance) {
    case DistanceFunction::kWeighted:
      return Run<DistanceFunction::kWeighted>(dataset, loss, k, options);
    case DistanceFunction::kPlain:
      return Run<DistanceFunction::kPlain>(dataset, loss, k, options);
    case DistanceFunction::kLogWeighted:
      return Run<DistanceFunction::kLogWeighted>(dataset, loss, k, options);
    case DistanceFunction::kRatio:
      return Run<DistanceFunction::kRatio>(dataset, loss, k, options);
    case DistanceFunction::kNergizClifton:
      return Run<DistanceFunction::kNergizClifton>(dataset, loss, k, options);
  }
  KANON_CHECK(false, "unreachable distance function");
  return Status::Internal("unreachable distance function");
}

Result<GeneralizedTable> AgglomerativeKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    const AgglomerativeOptions& options) {
  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         AgglomerativeCluster(dataset, loss, k, options));
  return TableFromClustering(loss.scheme_ptr(), dataset, clustering);
}

}  // namespace kanon
