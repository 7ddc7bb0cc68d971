#include "exec/exec_plan.hpp"

#include <algorithm>
#include <type_traits>

#include "common/hash.hpp"
#include "trace/stage_profiler.hpp"

#if defined(__x86_64__) && !defined(FLYMON_DISABLE_SIMD)
#include <immintrin.h>
#define FLYMON_EXEC_HAVE_AVX2 1
#endif

namespace flymon::exec {

namespace {

inline std::uint32_t resolve(const CompiledParam& p, const Packet& pkt,
                             const std::uint32_t* lanes, std::size_t n,
                             std::size_t pi,
                             const std::uint32_t* chains) noexcept {
  switch (p.kind) {
    case CompiledParam::Kind::kConst:
      return p.value;
    case CompiledParam::Kind::kMeta:
      return static_cast<std::uint32_t>(read_meta(pkt, p.meta));
    case CompiledParam::Kind::kKey:
      return ((lanes[p.slot_a * n + pi] ^ lanes[p.slot_b * n + pi]) >>
              p.shift) &
             p.mask;
    case CompiledParam::Kind::kChain:
      return chains[p.value];
  }
  return 0;
}

// ---- SALU stage bodies -----------------------------------------------------
//
// The preparation and operation arithmetic, one copy each, with the prep
// function / op as a template argument.  run_cmu decodes the entry per
// packet and calls the matching instantiation through visit_prep /
// visit_op; a single-entry CMU decodes once per batch instead and runs its
// whole packet loop from one instantiation (run_single_entry).

template <PrepFn K>
using PrepTag = std::integral_constant<PrepFn, K>;
template <dataplane::StatefulOp K>
using OpTag = std::integral_constant<dataplane::StatefulOp, K>;

/// Calls f(PrepTag<prep>{}): where a runtime PrepFn becomes a template
/// argument.
template <typename F>
[[gnu::always_inline]] inline decltype(auto) visit_prep(PrepFn prep, F&& f) {
  switch (prep) {
    case PrepFn::kNone: return f(PrepTag<PrepFn::kNone>{});
    case PrepFn::kCouponOneHot: return f(PrepTag<PrepFn::kCouponOneHot>{});
    case PrepFn::kBitSelectOneHot:
      return f(PrepTag<PrepFn::kBitSelectOneHot>{});
    case PrepFn::kSubtractGated: return f(PrepTag<PrepFn::kSubtractGated>{});
    case PrepFn::kKeepOnChainZero:
      return f(PrepTag<PrepFn::kKeepOnChainZero>{});
    case PrepFn::kBitSelectOneHotGated:
      return f(PrepTag<PrepFn::kBitSelectOneHotGated>{});
  }
  __builtin_unreachable();
}

/// Calls f(OpTag<op>{}): where a runtime StatefulOp becomes a template
/// argument.
template <typename F>
[[gnu::always_inline]] inline decltype(auto) visit_op(dataplane::StatefulOp op,
                                                      F&& f) {
  using dataplane::StatefulOp;
  switch (op) {
    case StatefulOp::kNop: return f(OpTag<StatefulOp::kNop>{});
    case StatefulOp::kCondAdd: return f(OpTag<StatefulOp::kCondAdd>{});
    case StatefulOp::kMax: return f(OpTag<StatefulOp::kMax>{});
    case StatefulOp::kAndOr: return f(OpTag<StatefulOp::kAndOr>{});
    case StatefulOp::kXor: return f(OpTag<StatefulOp::kXor>{});
  }
  __builtin_unreachable();
}

/// Preparation stage: rewrites p1/p2 in place.  False when the update
/// aborts (no BeauCoup coupon drawn).  `chains` is read by the gated preps
/// only.
template <PrepFn kPrep>
[[gnu::always_inline]] inline bool apply_prep(const CompiledEntry& e,
                                              const std::uint32_t* chains,
                                              std::uint32_t& p1,
                                              std::uint32_t& p2) noexcept {
  if constexpr (kPrep == PrepFn::kCouponOneHot) {
    p1 ^= (p1 >> 16) | (p1 << 16);
    const double u = static_cast<double>(p1) * 0x1.0p-32;
    if (u >= e.coupon_total) return false;  // no coupon drawn: no update
    const auto idx =
        std::min<unsigned>(static_cast<unsigned>(u / e.coupon_probability),
                           e.coupon_count - 1);
    p1 = 1u << idx;
    p2 = 1;
  } else if constexpr (kPrep == PrepFn::kBitSelectOneHot) {
    p1 = 1u << (p1 & 31u);
    p2 = 1;
  } else if constexpr (kPrep == PrepFn::kSubtractGated) {
    const std::uint32_t gate = chains[e.gate_chain];
    p1 = gate != 0 ? (p1 > p2 ? p1 - p2 : 0u) : 0u;
    p2 = 0;
  } else if constexpr (kPrep == PrepFn::kKeepOnChainZero) {
    if (chains[e.gate_chain] != 0) p1 = 0;
  } else if constexpr (kPrep == PrepFn::kBitSelectOneHotGated) {
    p1 = chains[e.gate_chain] == 0 ? (1u << (p1 & 31u)) : 0u;
  }
  return true;
}

/// Operation stage: the inlined SALU (same arithmetic as Salu::execute, on
/// the shared register, without touching any mutable SALU state).  `cur`
/// is the cell's value before the op; returns the op's result.
template <dataplane::StatefulOp kOp>
[[gnu::always_inline]] inline std::uint32_t apply_op(
    dataplane::RegisterArray& reg, std::uint32_t addr, std::uint32_t cur,
    std::uint32_t p1, std::uint32_t p2, std::uint32_t mask) noexcept {
  using dataplane::StatefulOp;
  if constexpr (kOp == StatefulOp::kNop) {
    return cur;
  } else if constexpr (kOp == StatefulOp::kCondAdd) {
    if (cur >= p2) return 0;
    const std::uint64_t sum = std::uint64_t{cur} + p1;
    const std::uint32_t next =
        sum > mask ? mask : static_cast<std::uint32_t>(sum);
    reg.store_relaxed(addr, next & mask);
    return next;
  } else if constexpr (kOp == StatefulOp::kMax) {
    if (cur >= (p1 & mask)) return 0;
    reg.store_relaxed(addr, p1 & mask);
    return p1 & mask;
  } else if constexpr (kOp == StatefulOp::kAndOr) {
    const std::uint32_t next = (p2 == 0) ? (cur & p1) : (cur | p1);
    reg.store_relaxed(addr, next & mask);
    return next;
  } else {
    static_assert(kOp == StatefulOp::kXor);
    const std::uint32_t next = cur ^ (p1 & mask);
    reg.store_relaxed(addr, next & mask);
    return next;
  }
}

/// The preps a single-entry loop is instantiated for: the gated ones read
/// chain channels, which keeps their CMU on the generic walk.
constexpr bool chain_free_prep(PrepFn prep) noexcept {
  return prep == PrepFn::kNone || prep == PrepFn::kCouponOneHot ||
         prep == PrepFn::kBitSelectOneHot;
}

/// True when a CMU's packet loop can run from a run_single_entry
/// instantiation: its slice holds exactly one entry, which is unsampled
/// and touches no chain channel (no chain output, no kChain parameter, no
/// gated prep).  Such an entry's output goes nowhere but the register, so
/// output_old_value does not matter either.
bool single_entry_shape(const CompiledCmu& cmu,
                        std::span<const CompiledEntry> entries) noexcept {
  if (cmu.entry_end - cmu.entry_begin != 1) return false;
  const CompiledEntry& e = entries[cmu.entry_begin];
  return !e.sampled && e.chain_out == kNoChain &&
         e.p1.kind != CompiledParam::Kind::kChain &&
         e.p2.kind != CompiledParam::Kind::kChain && chain_free_prep(e.prep);
}

inline void prefetch_row(const std::atomic<std::uint32_t>* cells,
                         std::uint32_t addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(static_cast<const void*>(cells + addr), 1 /*write*/,
                     1 /*low temporal locality*/);
#else
  (void)cells;
  (void)addr;
#endif
}

/// The packet loop of a single_entry_shape CMU with the entry's prep and
/// op fixed at compile time: per packet it reads the precomputed filter
/// verdict and address (`match` / `addr`, this entry's rows of the SoA
/// buffers), resolves p1/p2 and runs the op.  Same packet order, register
/// prefetch and arithmetic as the generic walk, so registers and counters
/// are identical.
template <dataplane::StatefulOp kOp, PrepFn kPrep>
void run_single_entry(const CompiledEntry& entry, std::span<const Packet> pkts,
                      const std::uint32_t* lanes, const std::uint32_t* match,
                      const std::uint32_t* addr, dataplane::RegisterArray& reg,
                      std::uint64_t& updates,
                      std::uint64_t& prep_aborts) noexcept {
  // A local copy: the register stores below cannot alias it, so its fields
  // stay in registers across the loop.
  const CompiledEntry e = entry;
  const std::size_t n = pkts.size();
  const std::atomic<std::uint32_t>* cells = reg.data();
  std::uint64_t ran = 0, aborted = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchDistance < n && match[p + kPrefetchDistance] != 0) {
      prefetch_row(cells, addr[p + kPrefetchDistance]);
    }
    if (match[p] == 0) continue;
    // Chain-free shape: resolve and apply_prep never read `chains`.
    std::uint32_t p1 = resolve(e.p1, pkts[p], lanes, n, p, nullptr);
    std::uint32_t p2 = resolve(e.p2, pkts[p], lanes, n, p, nullptr);
    if (!apply_prep<kPrep>(e, nullptr, p1, p2)) {
      ++aborted;
      continue;
    }
    const std::uint32_t a = addr[p];
    apply_op<kOp>(reg, a, reg.load_relaxed(a), p1, p2, e.value_mask);
    ++ran;
  }
  updates += ran;
  prep_aborts += aborted;
}

// ---- SoA stage kernels -----------------------------------------------------
//
// One entry's filter / address parameters against the whole batch: the
// per-entry constants are scalar (broadcast), the per-packet inputs are
// contiguous arrays, so the loops are straight-line SIMD.  The scalar
// versions are the ground truth and the non-x86 / FLYMON_DISABLE_SIMD path;
// dispatch is one function pointer chosen at static-init from CPUID.

void fill_match_scalar(std::uint32_t fs, std::uint32_t fsm, std::uint32_t fd,
                       std::uint32_t fdm, const std::uint32_t* src,
                       const std::uint32_t* dst, std::size_t n,
                       std::uint32_t* out) noexcept {
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t miss = ((src[p] ^ fs) & fsm) | ((dst[p] ^ fd) & fdm);
    out[p] = miss == 0 ? 0xFFFF'FFFFu : 0u;
  }
}

void fill_addr_scalar(std::uint32_t key_shift, std::uint32_t key_mask,
                      std::uint32_t addr_shift, std::uint32_t addr_mask,
                      std::uint32_t addr_base, const std::uint32_t* la,
                      const std::uint32_t* lb, std::size_t n,
                      std::uint32_t* out) noexcept {
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t sliced = ((la[p] ^ lb[p]) >> key_shift) & key_mask;
    out[p] = addr_base + ((sliced >> addr_shift) & addr_mask);
  }
}

#if defined(FLYMON_EXEC_HAVE_AVX2)

__attribute__((target("avx2"))) void fill_match_avx2(
    std::uint32_t fs, std::uint32_t fsm, std::uint32_t fd, std::uint32_t fdm,
    const std::uint32_t* src, const std::uint32_t* dst, std::size_t n,
    std::uint32_t* out) noexcept {
  const __m256i vfs = _mm256_set1_epi32(static_cast<int>(fs));
  const __m256i vfsm = _mm256_set1_epi32(static_cast<int>(fsm));
  const __m256i vfd = _mm256_set1_epi32(static_cast<int>(fd));
  const __m256i vfdm = _mm256_set1_epi32(static_cast<int>(fdm));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + p));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + p));
    const __m256i miss =
        _mm256_or_si256(_mm256_and_si256(_mm256_xor_si256(s, vfs), vfsm),
                        _mm256_and_si256(_mm256_xor_si256(d, vfd), vfdm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        _mm256_cmpeq_epi32(miss, zero));
  }
  fill_match_scalar(fs, fsm, fd, fdm, src + p, dst + p, n - p, out + p);
}

__attribute__((target("avx2"))) void fill_addr_avx2(
    std::uint32_t key_shift, std::uint32_t key_mask, std::uint32_t addr_shift,
    std::uint32_t addr_mask, std::uint32_t addr_base, const std::uint32_t* la,
    const std::uint32_t* lb, std::size_t n, std::uint32_t* out) noexcept {
  // The shifts are uniform across the batch (per-entry constants), so the
  // scalar-count forms (_mm256_srl_epi32) cover them without AVX2's
  // per-lane variable shifts.
  const __m128i cks = _mm_cvtsi32_si128(static_cast<int>(key_shift));
  const __m128i cas = _mm_cvtsi32_si128(static_cast<int>(addr_shift));
  const __m256i vkm = _mm256_set1_epi32(static_cast<int>(key_mask));
  const __m256i vam = _mm256_set1_epi32(static_cast<int>(addr_mask));
  const __m256i vab = _mm256_set1_epi32(static_cast<int>(addr_base));
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(la + p));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lb + p));
    const __m256i sliced = _mm256_and_si256(
        _mm256_srl_epi32(_mm256_xor_si256(a, b), cks), vkm);
    const __m256i addr = _mm256_add_epi32(
        vab, _mm256_and_si256(_mm256_srl_epi32(sliced, cas), vam));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p), addr);
  }
  fill_addr_scalar(key_shift, key_mask, addr_shift, addr_mask, addr_base,
                   la + p, lb + p, n - p, out + p);
}

#endif  // FLYMON_EXEC_HAVE_AVX2

using FillMatchFn = void (*)(std::uint32_t, std::uint32_t, std::uint32_t,
                             std::uint32_t, const std::uint32_t*,
                             const std::uint32_t*, std::size_t,
                             std::uint32_t*) noexcept;
using FillAddrFn = void (*)(std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t, std::uint32_t, const std::uint32_t*,
                            const std::uint32_t*, std::size_t,
                            std::uint32_t*) noexcept;

bool detect_avx2() noexcept {
#if defined(FLYMON_EXEC_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const bool g_avx2 = detect_avx2();
#if defined(FLYMON_EXEC_HAVE_AVX2)
const FillMatchFn g_fill_match = g_avx2 ? fill_match_avx2 : fill_match_scalar;
const FillAddrFn g_fill_addr = g_avx2 ? fill_addr_avx2 : fill_addr_scalar;
#else
const FillMatchFn g_fill_match = fill_match_scalar;
const FillAddrFn g_fill_addr = fill_addr_scalar;
#endif

}  // namespace

bool avx2_soa_active() noexcept { return g_avx2; }

const char* to_string(MergeKind k) noexcept {
  switch (k) {
    case MergeKind::kSum: return "sum";
    case MergeKind::kMax: return "max";
    case MergeKind::kOr: return "or";
    case MergeKind::kXor: return "xor";
  }
  return "?";
}

const char* to_string(MergeBlockerKind k) noexcept {
  switch (k) {
    case MergeBlockerKind::kChainOutput: return "chain_output";
    case MergeBlockerKind::kGatedCondAdd: return "gated_cond_add";
    case MergeBlockerKind::kAndMode: return "and_mode";
    case MergeBlockerKind::kMixedWindow: return "mixed_window";
  }
  return "?";
}

void ExecPlan::build_hot() {
  const std::size_t e = entries_.size();
  hot_ = EntryHot{};
  hot_.f_src_ip.reserve(e);
  hot_.f_src_mask.reserve(e);
  hot_.f_dst_ip.reserve(e);
  hot_.f_dst_mask.reserve(e);
  hot_.key_slot_a.reserve(e);
  hot_.key_slot_b.reserve(e);
  hot_.key_shift.reserve(e);
  hot_.key_mask.reserve(e);
  hot_.addr_shift.reserve(e);
  hot_.addr_mask.reserve(e);
  hot_.addr_base.reserve(e);
  for (const CompiledEntry& ce : entries_) {
    hot_.f_src_ip.push_back(ce.filter_src_ip);
    hot_.f_src_mask.push_back(ce.filter_src_mask);
    hot_.f_dst_ip.push_back(ce.filter_dst_ip);
    hot_.f_dst_mask.push_back(ce.filter_dst_mask);
    hot_.key_slot_a.push_back(ce.key_slot_a);
    hot_.key_slot_b.push_back(ce.key_slot_b);
    hot_.key_shift.push_back(ce.key_shift);
    hot_.key_mask.push_back(ce.key_mask);
    hot_.addr_shift.push_back(ce.addr_shift);
    hot_.addr_mask.push_back(ce.addr_mask);
    hot_.addr_base.push_back(ce.addr_base);
  }
}

// Forced inline: it runs once per packet per CMU, and with both
// run_batch_impl instantiations calling it gcc would keep it out of line
// (a call per packet per CMU costs batched throughput).
[[gnu::always_inline]] inline void ExecPlan::run_cmu(
    const CompiledCmu& cmu, dataplane::RegisterArray& reg, const Packet& pkt,
    const CandidateKey& key, const BatchScratch& s, std::size_t n,
    std::size_t p, std::uint32_t* chains, std::uint64_t& updates,
    std::uint64_t& sampled_out, std::uint64_t& prep_aborts,
    std::array<std::uint64_t, 5>& op_counts) const {
  const std::uint32_t* lanes = s.lanes.data();
  for (std::uint32_t i = cmu.entry_begin; i < cmu.entry_end; ++i) {
    // Initialization: precomputed filter verdict + sampling coin.
    if (s.match[std::size_t{i} * n + p] == 0) continue;
    const CompiledEntry& e = entries_[i];
    if (e.sampled) {
      const std::uint64_t h = hash64(
          std::span<const std::uint8_t>(key.data(), key.size()), e.sample_seed);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (u >= e.sample_probability) {
        ++sampled_out;
        continue;  // next matching task may run
      }
    }

    // Preparation: precomputed address + parameter resolution.
    const std::uint32_t addr = s.addr[std::size_t{i} * n + p];
    std::uint32_t p1 = resolve(e.p1, pkt, lanes, n, p, chains);
    std::uint32_t p2 = resolve(e.p2, pkt, lanes, n, p, chains);
    const std::uint32_t p2_raw = p2;
    const bool go = visit_prep(e.prep, [&](auto prep) {
      return apply_prep<prep()>(e, chains, p1, p2);
    });
    if (!go) {
      ++prep_aborts;
      return;
    }

    // Operation.
    const std::uint32_t cur = reg.load_relaxed(addr);
    const std::uint32_t result = visit_op(e.op, [&](auto op) {
      return apply_op<op()>(reg, addr, cur, p1, p2, e.value_mask);
    });

    std::uint32_t out = result;
    if (e.output_old_value) {
      out = e.one_hot_export ? ((cur & p1) != 0 ? 1u : 0u) : cur;
    }
    if (e.chain_out != kNoChain) {
      chains[e.chain_out] = (e.chain_fallback && result == 0) ? p2_raw : out;
    }
    ++updates;
    ++op_counts[static_cast<std::size_t>(e.op)];
    return;  // at most one entry executes per CMU per packet
  }
}

void ExecPlan::run_batch(std::span<const Packet> pkts, BatchScratch& s) const {
  if (trace::StageProfiler::global().sample_batch()) {
    run_batch_impl<true>(pkts, s, nullptr);
  } else {
    run_batch_impl<false>(pkts, s, nullptr);
  }
}

void ExecPlan::run_batch_sharded(std::span<const Packet> pkts, BatchScratch& s,
                                 const ShardBinding& binding) const {
  if (trace::StageProfiler::global().sample_batch()) {
    run_batch_impl<true>(pkts, s, &binding);
  } else {
    run_batch_impl<false>(pkts, s, &binding);
  }
}

template <bool kProfiled>
void ExecPlan::run_batch_impl(std::span<const Packet> pkts, BatchScratch& s,
                              const ShardBinding* b) const {
  const std::size_t n = pkts.size();
  if (n == 0) return;
  const std::size_t num_slots = slots_.size();
  const std::size_t num_chains = chain_count_;
  const std::size_t num_entries = entries_.size();

  trace::BatchStageSample sample;
  [[maybe_unused]] std::uint64_t t0 = 0;
  if constexpr (kProfiled) t0 = trace::now_cycles();
  const auto stage_lap = [&]([[maybe_unused]] trace::Stage st,
                             [[maybe_unused]] std::uint64_t items) {
    if constexpr (kProfiled) {
      const std::uint64_t now = trace::now_cycles();
      sample.add(st, now - t0, items);
      t0 = now;
    }
  };

  // Compression stage, batched and slot-major: serialize every packet,
  // then run each compiled hash lane over the whole batch (one kernel's
  // constants stay hot across n packets).  Lane 0 stays zero (the
  // "unconfigured unit / no selector" lane); `lanes[slot * n + p]` so each
  // lane is a contiguous per-packet array for the SoA address pass.
  s.keys.resize(n);
  // Lane 0 is the only one not overwritten below.
  s.lanes.resize(num_slots * n);
  std::fill_n(s.lanes.begin(), n, 0u);
  s.chains.assign(n * num_chains, 0u);
  s.src_ip.resize(n);
  s.dst_ip.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    s.keys[p] = serialize_candidate_key(pkts[p]);
    s.src_ip[p] = pkts[p].ft.src_ip;
    s.dst_ip[p] = pkts[p].ft.dst_ip;
  }
  for (std::size_t sl = 1; sl < num_slots; ++sl) {
    const dataplane::HashUnit& unit = slots_[sl].unit;
    std::uint32_t* lane = &s.lanes[sl * n];
    for (std::size_t p = 0; p < n; ++p) lane[p] = unit.compute(s.keys[p]);
  }
  stage_lap(trace::Stage::kCompression, n);

  // SoA stage passes: filter verdicts and translated addresses for every
  // (entry, packet) pair, entry-major.  Both are pure functions of the
  // lanes/headers computed above — sampling coins, preps and chains stay
  // in the scalar walk below, which consumes these buffers.
  s.match.resize(num_entries * n);
  s.addr.resize(num_entries * n);
  for (std::size_t i = 0; i < num_entries; ++i) {
    g_fill_match(hot_.f_src_ip[i], hot_.f_src_mask[i], hot_.f_dst_ip[i],
                 hot_.f_dst_mask[i], s.src_ip.data(), s.dst_ip.data(), n,
                 &s.match[i * n]);
  }
  stage_lap(trace::Stage::kFilter, num_entries * n);
  for (std::size_t i = 0; i < num_entries; ++i) {
    g_fill_addr(hot_.key_shift[i], hot_.key_mask[i], hot_.addr_shift[i],
                hot_.addr_mask[i], hot_.addr_base[i],
                &s.lanes[hot_.key_slot_a[i] * n],
                &s.lanes[hot_.key_slot_b[i] * n], n, &s.addr[i * n]);
  }
  stage_lap(trace::Stage::kAddress, num_entries * n);

  // Attribute stages, group-major.  Within a CMU packets run in trace
  // order, so final register state is byte-identical to per-packet
  // processing; chain channels are per-packet, so reordering across CMUs
  // of different packets cannot be observed.  Counter totals aggregate per
  // batch and flush once — into the shared atomics on the live path, into
  // the shard's private block (slot layout: see counter_slots()) when a
  // binding is given.
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const CompiledGroup& g = groups_[gi];
    const std::uint64_t hashes =
        static_cast<std::uint64_t>(n) * g.configured_units;
    if (b != nullptr) {
      b->counters[gi * 2] += n;
      b->counters[gi * 2 + 1] += hashes;
    } else {
      if (g.packets != nullptr) g.packets->inc(n);
      if (g.hashes != nullptr && hashes != 0) g.hashes->inc(hashes);
    }
    for (std::uint32_t c = g.cmu_begin; c < g.cmu_end; ++c) {
      const CompiledCmu& cmu = cmus_[c];
      if (cmu.entry_begin == cmu.entry_end) continue;
      dataplane::RegisterArray& reg = b != nullptr ? *b->regs[c] : *cmu.reg;
      const std::atomic<std::uint32_t>* reg_cells = reg.data();
      std::uint64_t updates = 0, sampled_out = 0, prep_aborts = 0;
      std::array<std::uint64_t, 5> op_counts{};
      if (single_entry_shape(cmu, entries_)) {
        // One decode per batch: the entry's prep and op pick the loop.
        const CompiledEntry& e = entries_[cmu.entry_begin];
        const std::size_t row = std::size_t{cmu.entry_begin} * n;
        visit_op(e.op, [&](auto op) {
          visit_prep(e.prep, [&](auto prep) {
            if constexpr (chain_free_prep(prep())) {
              run_single_entry<op(), prep()>(e, pkts, s.lanes.data(),
                                             &s.match[row], &s.addr[row], reg,
                                             updates, prep_aborts);
            }
          });
        });
        op_counts[static_cast<std::size_t>(e.op)] = updates;
      } else {
        for (std::size_t p = 0; p < n; ++p) {
          // Prefetch the register row the NEXT packet will touch: its
          // translated address is already in the SoA buffer, and
          // first-match-wins tells us which entry's row that will be
          // (sampling can still divert — then the hint is merely wasted).
          if (p + kPrefetchDistance < n) {
            const std::size_t q = p + kPrefetchDistance;
            for (std::uint32_t i = cmu.entry_begin; i < cmu.entry_end; ++i) {
              if (s.match[std::size_t{i} * n + q] != 0) {
                prefetch_row(reg_cells, s.addr[std::size_t{i} * n + q]);
                break;
              }
            }
          }
          run_cmu(cmu, reg, pkts[p], s.keys[p], s, n, p,
                  &s.chains[p * num_chains], updates, sampled_out,
                  prep_aborts, op_counts);
        }
      }
      // Everything scalar in the packet loop (sampling coins, preps,
      // chains, the SALU op) attributes to the SALU stage: one lap per
      // CMU, one item per entry that ran or aborted in prep.
      stage_lap(trace::Stage::kSalu, updates + prep_aborts);
      if (b != nullptr) {
        std::uint64_t* slot = &b->counters[groups_.size() * 2 + c * 8];
        slot[0] += updates;
        slot[1] += sampled_out;
        slot[2] += prep_aborts;
        for (std::size_t op = 0; op < op_counts.size(); ++op) {
          slot[3 + op] += op_counts[op];
        }
        continue;
      }
      // Flush the batch-aggregated counters (Counter::inc self-gates on
      // telemetry::enabled()).
      if (updates != 0 && cmu.updates != nullptr) cmu.updates->inc(updates);
      if (sampled_out != 0 && cmu.sampled_out != nullptr)
        cmu.sampled_out->inc(sampled_out);
      if (prep_aborts != 0 && cmu.prep_aborts != nullptr)
        cmu.prep_aborts->inc(prep_aborts);
      for (std::size_t op = 0; op < op_counts.size(); ++op) {
        if (op_counts[op] != 0 && cmu.op_counters[op] != nullptr) {
          cmu.op_counters[op]->inc(op_counts[op]);
        }
      }
    }
  }

  if constexpr (kProfiled) {
    trace::StageProfiler::global().record_batch(sample);
  }
}

void ExecPlan::flush_counter_block(std::span<std::uint64_t> block) const {
  const auto flush = [&](std::size_t slot, telemetry::Counter* c) {
    if (block[slot] != 0) {
      if (c != nullptr) c->inc(block[slot]);
      block[slot] = 0;
    }
  };
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    flush(gi * 2, groups_[gi].packets);
    flush(gi * 2 + 1, groups_[gi].hashes);
  }
  for (std::size_t c = 0; c < cmus_.size(); ++c) {
    const std::size_t base = groups_.size() * 2 + c * 8;
    flush(base, cmus_[c].updates);
    flush(base + 1, cmus_[c].sampled_out);
    flush(base + 2, cmus_[c].prep_aborts);
    for (std::size_t op = 0; op < 5; ++op) {
      flush(base + 3 + op, cmus_[c].op_counters[op]);
    }
  }
}

}  // namespace flymon::exec
