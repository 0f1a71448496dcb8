// The vector instruction set the numeric kernels run at.
//
// The FFT line kernel (math/fft.cpp), the PM force interpolation and CIC
// deposit (ramses/pm.cpp) and the periodic position wrap
// (ramses/particles.cpp) each have one instance per instruction set,
// built with __attribute__((target(...))) in an otherwise baseline x86-64
// build. The CPU picks one once, at the first call; nothing else can
// select it. Every instance computes the same bytes, so the choice moves
// only time.
#pragma once

namespace gc::math {

/// Widest vectors an instance uses: 16 bytes (SSE2, every x86-64) or
/// 64 bytes (AVX-512F).
enum class Isa { kSse2, kAvx512 };

/// True iff this CPU (and the OS) can run `isa`.
[[nodiscard]] bool host_supports(Isa isa);

/// The widest instruction set the host supports; detected once.
[[nodiscard]] Isa host_isa();

/// "sse2" or "avx512".
[[nodiscard]] const char* isa_name(Isa isa);

}  // namespace gc::math
