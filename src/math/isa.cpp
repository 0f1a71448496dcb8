#include "math/isa.hpp"

namespace gc::math {

bool host_supports(Isa isa) {
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kSse2:
      return true;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
}

Isa host_isa() {
  static const Isa isa =
      host_supports(Isa::kAvx512) ? Isa::kAvx512 : Isa::kSse2;
  return isa;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

}  // namespace gc::math
