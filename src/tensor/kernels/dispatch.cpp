// Kernel-table resolution: probe once, dispatch forever.
//
// The active table lives behind one atomic pointer. First use resolves it
// from the host probe (cpuid via __builtin_cpu_supports on x86-64) to the
// best supported table. Resolution is idempotent, so a first-use race
// between threads is benign: both resolve the same pointer. After that
// every lookup is a single atomic load; nothing on the dispatch path
// allocates (the hot-path-alloc conlint region below pins this statically,
// tests/test_kernels.cpp pins it dynamically).
#include "tensor/kernels/dispatch.h"

#include <atomic>

#include "obs/metrics.h"
#include "tensor/kernels/kernel_scalar.h"
#include "util/logging.h"

namespace con::tensor::kernels {

// Defined in kernel_avx2.cpp; returns nullptr when AVX2 is not compiled
// into this binary (wrong target architecture).
const KernelTable* avx2_table();

namespace {

// The pre-dispatch crossover (gemm.cpp PR 2): below this M·N·K the scalar
// loops beat pack+dispatch.
constexpr Index kScalarSmallGemmFlops = 1 << 15;

const KernelTable* scalar_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::kScalar;
    k.small_gemm_flops = kScalarSmallGemmFlops;
    k.nn_4x8 = &scalar::nn_4x8;
    k.nt_4x8 = &scalar::nt_4x8;
    k.nt_pack_a = &scalar::nt_pack_a;
    k.nt_pack_b = &scalar::nt_pack_b;
    k.axpy = &scalar::axpy;
    k.axpy_out = &scalar::axpy_out;
    k.add = &scalar::add;
    k.sub = &scalar::sub;
    k.mul = &scalar::mul;
    k.scale = &scalar::scale;
    k.clamp = &scalar::clamp;
    k.relu = &scalar::relu;
    k.sign = &scalar::sign;
    k.relu_bwd = &scalar::relu_bwd;
    k.fake_quant = &scalar::fake_quant;
    k.pack_row = &scalar::pack_row8;
    k.int8_4x16 = &scalar::int8_4x16;
    k.quant_i8 = &scalar::quant_i8;
    k.requant_col_bias = &scalar::requant_col_bias;
    k.requant_row_bias = &scalar::requant_row_bias;
    return k;
  }();
  return &t;
}

const KernelTable* table_for(Isa isa) {
  return isa == Isa::kAvx2 ? avx2_table() : scalar_table();
}

bool host_executes(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

bool isa_supported(Isa isa) {
  return table_for(isa) != nullptr && host_executes(isa);
}

// conlint:hotpath begin
const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = table_for(isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar);
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}
// conlint:hotpath end

Isa active_isa() { return active().isa; }

Isa set_isa(Isa isa) {
  if (!isa_supported(isa)) {
    util::log_warn(
        "kernel ISA '%s' is not available on this host/build; "
        "falling back to scalar kernels",
        isa_name(isa));
    static obs::Counter& fallback = obs::counter("gemm.dispatch.fallback");
    fallback.add(1);
    isa = Isa::kScalar;
  }
  g_active.store(table_for(isa), std::memory_order_release);
  return isa;
}

}  // namespace con::tensor::kernels
