#include "op2ca/mesh/layout.hpp"

#include <algorithm>

#include "op2ca/util/aligned.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::mesh {

namespace {

// Doubles per cache line; element-count padding granularity.
constexpr lidx_t kLineDoubles =
    static_cast<lidx_t>(util::kCacheLine / sizeof(double));

lidx_t round_up_line(lidx_t n) {
  return (n + kLineDoubles - 1) & ~(kLineDoubles - 1);
}

}  // namespace

const char* layout_name(LayoutKind k) {
  switch (k) {
    case LayoutKind::AoS:
      return "aos";
    case LayoutKind::SoA:
      return "soa";
  }
  return "?";
}

LayoutKind layout_by_name(const std::string& name) {
  if (name == "aos") return LayoutKind::AoS;
  if (name == "soa") return LayoutKind::SoA;
  raise("unknown layout '" + name + "' (expected aos|soa)");
}

bool LayoutConfig::enabled() const {
  if (kind != LayoutKind::AoS) return true;
  for (const auto& [_, k] : per_set)
    if (k != LayoutKind::AoS) return true;
  for (const auto& [_, k] : per_dat)
    if (k != LayoutKind::AoS) return true;
  return false;
}

LayoutKind LayoutConfig::resolve(const std::string& set,
                                 const std::string& dat) const {
  if (auto it = per_dat.find(dat); it != per_dat.end()) return it->second;
  if (auto it = per_set.find(set); it != per_set.end()) return it->second;
  return kind;
}

DatLayout DatLayout::make(LayoutKind kind, int dim, lidx_t elems) {
  if (dim <= 0) raise("DatLayout: dim must be > 0");
  if (elems < 0) raise("DatLayout: elems must be >= 0");

  DatLayout lay;
  lay.kind = kind;
  lay.dim = dim;
  lay.elems = elems;
  if (kind == LayoutKind::AoS) {
    // Plain rows: bitwise-identical addressing to the legacy layout.
    lay.padded = elems;
    lay.estride = dim;
    lay.cstride = 1;
  } else {
    // Component planes, each padded to start cache-aligned.
    lay.padded = round_up_line(elems);
    lay.estride = 1;
    lay.cstride = lay.padded;
  }
  return lay;
}

void to_layout(const double* aos_rows, const DatLayout& lay, double* out) {
  // copy_n / fill_n rather than memcpy / memset: an empty dat may pass
  // null pointers, which the mem* functions forbid even for zero bytes.
  if (lay.is_aos()) {
    std::copy_n(aos_rows, static_cast<std::size_t>(lay.elems) * lay.dim, out);
    return;
  }
  std::fill_n(out, lay.alloc_doubles(), 0.0);
  for (lidx_t i = 0; i < lay.elems; ++i) {
    const double* row = aos_rows + static_cast<std::size_t>(i) * lay.dim;
    const std::size_t base = lay.elem_offset(i);
    for (int c = 0; c < lay.dim; ++c)
      out[base + static_cast<std::size_t>(c) * lay.cstride] = row[c];
  }
}

void from_layout(const double* data, const DatLayout& lay,
                 double* aos_rows) {
  if (lay.is_aos()) {
    std::copy_n(data, static_cast<std::size_t>(lay.elems) * lay.dim,
                aos_rows);
    return;
  }
  for (lidx_t i = 0; i < lay.elems; ++i) {
    double* row = aos_rows + static_cast<std::size_t>(i) * lay.dim;
    const std::size_t base = lay.elem_offset(i);
    for (int c = 0; c < lay.dim; ++c)
      row[c] = data[base + static_cast<std::size_t>(c) * lay.cstride];
  }
}

}  // namespace op2ca::mesh
