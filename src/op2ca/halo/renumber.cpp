#include "op2ca/halo/renumber.hpp"

#include <algorithm>

#include "op2ca/halo/rank_workers.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::halo {

void build_local_maps(const mesh::MeshDef& mesh, HaloPlan* plan) {
  OP2CA_REQUIRE(plan != nullptr, "build_local_maps: null plan");
  const int nsets = mesh.num_sets();
  const int nranks = static_cast<int>(plan->ranks.size());
  const int workers = detail::rank_workers(nranks);

  // Dense global -> local lookup per set, one per worker, allocated on the
  // calling thread and reset after each rank.
  std::vector<std::vector<LIdxVec>> g2l(
      static_cast<std::size_t>(workers),
      std::vector<LIdxVec>(static_cast<std::size_t>(nsets)));
  for (auto& lookup : g2l)
    for (mesh::set_id s = 0; s < nsets; ++s)
      lookup[static_cast<std::size_t>(s)].assign(
          static_cast<std::size_t>(mesh.set(s).size), kInvalidLocal);

  detail::for_each_rank(nranks, workers, [&](int w, rank_t r) {
    RankPlan& rp = plan->ranks[static_cast<std::size_t>(r)];
    std::vector<LIdxVec>& lookup = g2l[static_cast<std::size_t>(w)];
    for (mesh::set_id s = 0; s < nsets; ++s) {
      const SetLayout& lay = rp.sets[static_cast<std::size_t>(s)];
      for (lidx_t i = 0; i < lay.total; ++i)
        lookup[static_cast<std::size_t>(s)][static_cast<std::size_t>(
            lay.local_to_global[static_cast<std::size_t>(i)])] = i;
    }

    rp.maps.assign(static_cast<std::size_t>(mesh.num_maps()), LocalMap{});
    for (mesh::map_id m = 0; m < mesh.num_maps(); ++m) {
      const mesh::MapDef& mp = mesh.map(m);
      const SetLayout& from_lay = rp.sets[static_cast<std::size_t>(mp.from)];
      const LIdxVec& to_lookup = lookup[static_cast<std::size_t>(mp.to)];

      LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
      lm.arity = mp.arity;
      lm.targets.resize(static_cast<std::size_t>(from_lay.total) *
                        static_cast<std::size_t>(mp.arity));
      for (lidx_t f = 0; f < from_lay.total; ++f) {
        const gidx_t gf =
            from_lay.local_to_global[static_cast<std::size_t>(f)];
        for (int k = 0; k < mp.arity; ++k)
          lm.targets[static_cast<std::size_t>(f) *
                         static_cast<std::size_t>(mp.arity) +
                     static_cast<std::size_t>(k)] =
              to_lookup[static_cast<std::size_t>(
                  mp.targets[static_cast<std::size_t>(gf * mp.arity + k)])];
      }
    }

    for (mesh::set_id s = 0; s < nsets; ++s)
      for (gidx_t g : rp.sets[static_cast<std::size_t>(s)].local_to_global)
        lookup[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] =
            kInvalidLocal;
  });
  plan->has_local_maps = true;
}

std::vector<double> gather_local(const std::vector<double>& global_data,
                                 int dim, const SetLayout& layout) {
  std::vector<double> local(static_cast<std::size_t>(layout.total) *
                            static_cast<std::size_t>(dim));
  for (lidx_t i = 0; i < layout.total; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    for (int d = 0; d < dim; ++d)
      local[static_cast<std::size_t>(i) * static_cast<std::size_t>(dim) +
            static_cast<std::size_t>(d)] =
          global_data[static_cast<std::size_t>(g) *
                          static_cast<std::size_t>(dim) +
                      static_cast<std::size_t>(d)];
  }
  return local;
}

void gather_local(const std::vector<double>& global_data,
                  const SetLayout& layout, const mesh::DatLayout& store,
                  double* out) {
  const int dim = store.dim;
  std::fill(out, out + store.alloc_doubles(), 0.0);
  for (lidx_t i = 0; i < layout.total; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    const double* row = global_data.data() +
                        static_cast<std::size_t>(g) *
                            static_cast<std::size_t>(dim);
    const std::size_t base = store.elem_offset(i);
    for (int d = 0; d < dim; ++d)
      out[base + static_cast<std::size_t>(d) *
                     static_cast<std::size_t>(store.cstride)] = row[d];
  }
}

void scatter_owned(const std::vector<double>& local_data, int dim,
                   const SetLayout& layout,
                   std::vector<double>* global_data) {
  OP2CA_REQUIRE(global_data != nullptr, "scatter_owned: null output");
  for (lidx_t i = 0; i < layout.num_owned; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    for (int d = 0; d < dim; ++d)
      (*global_data)[static_cast<std::size_t>(g) *
                         static_cast<std::size_t>(dim) +
                     static_cast<std::size_t>(d)] =
          local_data[static_cast<std::size_t>(i) *
                         static_cast<std::size_t>(dim) +
                     static_cast<std::size_t>(d)];
  }
}

void scatter_owned(const double* local_data, const SetLayout& layout,
                   const mesh::DatLayout& store,
                   std::vector<double>* global_data) {
  OP2CA_REQUIRE(global_data != nullptr, "scatter_owned: null output");
  const int dim = store.dim;
  for (lidx_t i = 0; i < layout.num_owned; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    double* row = global_data->data() +
                  static_cast<std::size_t>(g) *
                      static_cast<std::size_t>(dim);
    const std::size_t base = store.elem_offset(i);
    for (int d = 0; d < dim; ++d)
      row[d] = local_data[base + static_cast<std::size_t>(d) *
                                     static_cast<std::size_t>(store.cstride)];
  }
}

}  // namespace op2ca::halo
