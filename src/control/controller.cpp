#include "control/controller.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bits.hpp"
#include "exec/exec_plan.hpp"
#include "sketch/beaucoup.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/mrac.hpp"
#include "sketch/odd_sketch.hpp"

namespace flymon::control {
namespace {

using dataplane::StatefulOp;

/// Key-slice offsets used by the rows of one group (paper §3.2: e.g. bits
/// 0-15 / 8-23 / 16-31 of the 32-bit compressed key).
constexpr std::uint8_t kRowSliceOffset[3] = {0, 8, 16};
constexpr std::uint8_t kKeySliceWidth = 16;

/// TowerSketch row counter widths (left-aligned in the 32-bit bucket).
constexpr unsigned kTowerWidths[3] = {32, 16, 8};

/// Counter Braids layer-1 saturation value.
constexpr std::uint32_t kBraidsLayer1Cap = 1024;

Algorithm resolve_algorithm(const TaskSpec& spec) {
  if (spec.algorithm != Algorithm::kAuto) return spec.algorithm;
  switch (spec.attribute) {
    case AttributeKind::kFrequency: return Algorithm::kCms;
    case AttributeKind::kDistinct:
      return spec.key.empty() ? Algorithm::kHyperLogLog : Algorithm::kBeauCoup;
    case AttributeKind::kExistence: return Algorithm::kBloomFilter;
    case AttributeKind::kMax: return Algorithm::kSuMaxMax;
    case AttributeKind::kSimilarity: return Algorithm::kOddSketch;
  }
  return Algorithm::kCms;
}

/// The flow-key spec actually hashed for addressing: single-key tasks
/// (cardinality: key = N/A) locate buckets by the parameter's key.
FlowKeySpec effective_key(const TaskSpec& spec) {
  if (!spec.key.empty()) return spec.key;
  return spec.param.key_spec;
}

/// `part` = `whole` minus some fields?  Returns the complement when `part`
/// covers a strict, field-aligned subset of `whole`.
std::optional<FlowKeySpec> spec_complement(const FlowKeySpec& whole,
                                           const FlowKeySpec& part) {
  auto field_ok = [](std::uint8_t w, std::uint8_t p) { return p == 0 || p == w; };
  if (!field_ok(whole.src_ip_bits, part.src_ip_bits) ||
      !field_ok(whole.dst_ip_bits, part.dst_ip_bits) ||
      !field_ok(whole.src_port_bits, part.src_port_bits) ||
      !field_ok(whole.dst_port_bits, part.dst_port_bits) ||
      !field_ok(whole.proto_bits, part.proto_bits) ||
      !field_ok(whole.ts_bits, part.ts_bits)) {
    return std::nullopt;
  }
  FlowKeySpec c;
  c.src_ip_bits = part.src_ip_bits ? 0 : whole.src_ip_bits;
  c.dst_ip_bits = part.dst_ip_bits ? 0 : whole.dst_ip_bits;
  c.src_port_bits = part.src_port_bits ? 0 : whole.src_port_bits;
  c.dst_port_bits = part.dst_port_bits ? 0 : whole.dst_port_bits;
  c.proto_bits = part.proto_bits ? 0 : whole.proto_bits;
  c.ts_bits = part.ts_bits ? 0 : whole.ts_bits;
  if (c.empty() || c == whole) return std::nullopt;
  return c;
}

ParamSelect lower_param(const ParamSpec& p, const CompressedKeySelector& param_sel) {
  switch (p.source) {
    case ParamSource::kConst: return ParamSelect::constant(p.const_value);
    case ParamSource::kMeta: return ParamSelect::metadata(p.meta);
    case ParamSource::kCompressedKey:
      return ParamSelect::compressed(param_sel, KeySlice{0, 32});
  }
  return ParamSelect::constant(1);
}

/// Largest power-of-two probability <= p (so each coupon window expands to
/// exactly one ternary entry).
double quantize_probability_pow2(double p) {
  if (p >= 1.0) return 1.0;
  double q = 1.0;
  while (q > p) q /= 2;
  return q;
}

std::uint8_t rho_of_slice(std::uint32_t v, unsigned width) {
  if (v == 0) return 0;
  const std::uint32_t aligned = v << (32 - width);
  return static_cast<std::uint8_t>(std::countl_one(aligned) + 1);
}

}  // namespace

Controller::Controller(FlyMonDataPlane& dp, TranslationStrategy strategy, AllocMode mode)
    : dp_(&dp), strategy_(strategy), mode_(mode) {
  bind_telemetry(telemetry::Registry::global());
}

void Controller::bind_telemetry(telemetry::Registry& registry) {
  registry_ = &registry;
  deploys_counter_ = &registry.counter("flymon_task_deploys_total");
  deploy_failures_counter_ = &registry.counter("flymon_task_deploy_failures_total");
  removals_counter_ = &registry.counter("flymon_task_removals_total");
  resizes_counter_ = &registry.counter("flymon_task_resizes_total");
}

BuddyAllocator& Controller::allocator(unsigned group, unsigned cmu) {
  const auto key = std::make_pair(group, cmu);
  auto it = allocators_.find(key);
  if (it == allocators_.end()) {
    const std::uint32_t total = dp_->group(group).config().register_buckets;
    it = allocators_.emplace(key, BuddyAllocator(total, std::max(1u, total / 32))).first;
  }
  return it->second;
}

const BuddyAllocator* Controller::find_allocator(unsigned group,
                                                 unsigned cmu) const noexcept {
  const auto it = allocators_.find(std::make_pair(group, cmu));
  return it == allocators_.end() ? nullptr : &it->second;
}

std::optional<CompressedKeySelector> Controller::ensure_selector(
    unsigned group, const FlowKeySpec& spec, unsigned& mask_rules) {
  if (spec.empty()) return std::nullopt;
  auto& comp = dp_->group(group).compression();
  if (auto sel = comp.find_selector(spec)) return sel;
  // Greedy reuse (paper §3.4): build on a unit that already covers part of
  // the key, configuring one free unit with the complement and XOR-ing.
  for (unsigned u = 0; u < comp.num_units(); ++u) {
    if (!comp.spec_of(u)) continue;
    if (auto complement = spec_complement(spec, *comp.spec_of(u))) {
      if (auto free_u = comp.free_unit()) {
        comp.configure(*free_u, *complement);
        ++mask_rules;
        return CompressedKeySelector{static_cast<std::int8_t>(u),
                                     static_cast<std::int8_t>(*free_u)};
      }
    }
  }
  if (auto free_u = comp.free_unit()) {
    comp.configure(*free_u, spec);
    ++mask_rules;
    return CompressedKeySelector{static_cast<std::int8_t>(*free_u), -1};
  }
  return std::nullopt;
}

void Controller::ref_selector(unsigned group, const CompressedKeySelector& sel) {
  if (sel.unit_a >= 0) ++unit_refs_[{group, static_cast<unsigned>(sel.unit_a)}];
  if (sel.unit_b >= 0) ++unit_refs_[{group, static_cast<unsigned>(sel.unit_b)}];
}

void Controller::unref_selector(unsigned group, const CompressedKeySelector& sel) {
  auto drop = [&](std::int8_t unit) {
    if (unit < 0) return;
    const auto key = std::make_pair(group, static_cast<unsigned>(unit));
    auto it = unit_refs_.find(key);
    if (it == unit_refs_.end()) return;
    if (--it->second == 0) {
      unit_refs_.erase(it);
      dp_->group(group).compression().clear_unit(static_cast<unsigned>(unit));
    }
  };
  drop(sel.unit_a);
  drop(sel.unit_b);
}

std::vector<exec::EntryOwnership> Controller::entry_ownership() const {
  std::vector<exec::EntryOwnership> owners;
  for (const auto& [id, t] : tasks_) {
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      const RowPlacement& row = t.rows[r];
      for (std::size_t u = 0; u < row.units.size(); ++u) {
        const UnitPlacement& up = row.units[u];
        exec::EntryOwnership o;
        o.group = up.group;
        o.cmu = up.cmu;
        o.phys_id = up.phys_id;
        o.task_id = id;
        o.row = r;
        o.unit = u;
        o.name = t.spec.name;
        owners.push_back(std::move(o));
      }
    }
  }
  return owners;
}

void Controller::recompile_and_publish() {
  const std::vector<exec::EntryOwnership> owners = entry_ownership();
  if (dp_->republish_plan(owners) == 0) {
    // The publish-time translation validator vetoed the compiled plan
    // (generation 0 = nothing published, interpreted path serves traffic).
    // Surface the divergence diagnostics the same way the deploy gates do;
    // the deployment itself stands — a miscompile is a compiler bug, not a
    // deployment bug.
    last_verify_errors_ = dp_->last_publish_veto();
  }
}

DeployResult Controller::add_task(const TaskSpec& spec) {
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.add_task", reconfig.tag());
  // Fold outstanding shard deltas before the deployment mutates register
  // layout: the end-of-mutation publish fence also merges, but by then
  // this mutation may already have cleared/reused the very cells the
  // deltas target (merge-after-clear would resurrect pre-mutation state).
  dp_->merge_shards();
  if (paranoid_) {
    // Pre-flight: dry-run the add against a shadow world before touching
    // the live pipeline.  The post-commit gate in deploy() still runs —
    // the pre-flight proves intent, the post-commit gate proves the
    // commit — but a bad spec is now rejected with the live data plane
    // never modified.
    trace::Span gate("ctl.plan_gate");
    last_verify_errors_ = run_plan_gate(spec);
    if (!last_verify_errors_.empty()) {
      deploy_failures_counter_->inc();
      DeployResult r;
      r.error = "plan gate rejected deployment:\n" + last_verify_errors_;
      return r;
    }
  }
  DeployResult r = deploy(spec, next_id_);
  if (r.ok) {
    ++next_id_;
    recompile_and_publish();
  }
  return r;
}

void Controller::undo_deployment(DeployedTask& t) {
  for (const RowPlacement& row : t.rows) {
    for (const UnitPlacement& up : row.units) {
      Cmu& cmu = dp_->group(up.group).cmu(up.cmu);
      const CmuTaskEntry* e = cmu.find(up.phys_id);
      if (e != nullptr) {
        unref_selector(up.group, e->key_sel);
        if (e->p1.source == ParamSelect::Source::kCompressedKey) {
          unref_selector(up.group, e->p1.key_sel);
        }
        cmu.remove(up.phys_id);
      }
      if (up.partition.size != 0) {
        cmu.reg().clear_range(up.partition.base, up.partition.end());
        allocator(up.group, up.cmu).release(up.partition);
      }
    }
  }
  t.rows.clear();
  gc_unreferenced_units();
}

void Controller::gc_unreferenced_units() {
  // Clear hash units configured during placement probes that ended up
  // unused (e.g. a group that offered a selector but had no free CMU).
  for (unsigned g = 0; g < dp_->num_groups(); ++g) {
    auto& comp = dp_->group(g).compression();
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      if (comp.spec_of(u) && unit_refs_.find({g, u}) == unit_refs_.end()) {
        comp.clear_unit(u);
      }
    }
  }
}

DeployResult Controller::deploy(const TaskSpec& spec, std::uint32_t public_id) {
  trace::Span span("ctl.deploy", public_id);
  DeployedTask staged;
  DeployResult result;
  try {
    result = deploy_impl(spec, public_id, staged);
  } catch (const std::exception& ex) {
    // No task-mutation path may leak an exception mid-operation: undo every
    // unit/partition staged so far so the data plane is byte-identical to
    // its pre-deploy state, then fail the result instead.
    undo_deployment(staged);
    tasks_.erase(public_id);
    gc_unreferenced_units();
    deploy_failures_counter_->inc();
    result = DeployResult{};
    result.error = std::string("deployment aborted: ") + ex.what();
    return result;
  }
  if (!result.ok || !paranoid_) return result;
  // Paranoid gate: dry-run the static verifier over the committed state;
  // any error diagnostic rolls the deployment back.
  trace::Span gate("ctl.verify_gate");
  last_verify_errors_ = run_verify_gate();
  gate.close();
  if (last_verify_errors_.empty()) return result;
  auto it = tasks_.find(public_id);
  if (it != tasks_.end()) {
    undo_deployment(it->second);
    tasks_.erase(it);
  }
  deploy_failures_counter_->inc();
  result = DeployResult{};
  result.error = "paranoid verify rejected deployment:\n" + last_verify_errors_;
  return result;
}

DeployResult Controller::deploy_impl(const TaskSpec& spec, std::uint32_t public_id,
                                     DeployedTask& t) {
  DeployResult result;
  const Algorithm algo = resolve_algorithm(spec);
  const FlowKeySpec key_spec = effective_key(spec);
  if (key_spec.empty()) {
    result.error = "task has neither a key nor a key-valued parameter";
    return result;
  }
  unsigned rows = std::max(1u, spec.rows);

  t.id = public_id;
  t.spec = spec;
  t.algorithm = algo;
  t.buckets = quantize_buckets(spec.memory_buckets, mode_);

  // BeauCoup coupon configuration from the report threshold.
  if (algo == Algorithm::kBeauCoup) {
    const double threshold = spec.report_threshold > 0
                                 ? static_cast<double>(spec.report_threshold)
                                 : 512.0;
    auto cfg = sketch::CouponConfig::for_threshold(threshold, 32, 32);
    t.coupon_count = cfg.num_coupons;
    t.coupon_probability = quantize_probability_pow2(cfg.draw_probability);
    // Re-derive the collection threshold under the quantized probability.
    sketch::CouponConfig q = cfg;
    q.draw_probability = t.coupon_probability;
    unsigned best_ct = 1;
    double best_err = std::numeric_limits<double>::max();
    for (unsigned ct = 1; ct <= q.num_coupons; ++ct) {
      const double err = std::abs(q.expected_items_to_collect(ct) - threshold);
      if (err < best_err) {
        best_err = err;
        best_ct = ct;
      }
    }
    t.coupon_threshold = best_ct;
  }

  // ------- entry construction helpers -------
  auto base_entry = [&](const CompressedKeySelector& key_sel, unsigned row_idx,
                        const MemoryPartition& part) {
    CmuTaskEntry e;
    e.task_id = 0;  // filled at install
    e.filter = spec.filter;
    e.priority = public_id;
    e.sample_probability = spec.sample_probability;
    e.key_sel = key_sel;
    // Rows slice different sub-parts of the 32-bit compressed key; widen
    // the slice when the partition needs more than 16 address bits.
    const std::uint8_t offset = kRowSliceOffset[row_idx % 3];
    const unsigned size_log = part.size > 1 ? log2_floor(part.size) : 1;
    const auto width = static_cast<std::uint8_t>(
        std::min<unsigned>(32u - offset, std::max<unsigned>(kKeySliceWidth, size_log)));
    e.key_slice = KeySlice{offset, width};
    e.partition = part;
    return e;
  };

  auto install_unit = [&](unsigned g, unsigned c, CmuTaskEntry e,
                          const MemoryPartition& part,
                          const CompressedKeySelector& param_sel_used)
      -> std::optional<UnitPlacement> {
    e.task_id = next_phys_;
    try {
      dp_->group(g).cmu(c).install(e);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    ref_selector(g, e.key_sel);
    if (e.p1.source == ParamSelect::Source::kCompressedKey) ref_selector(g, param_sel_used);
    UnitPlacement up{g, c, next_phys_, part};
    ++next_phys_;
    return up;
  };

  // Per-unit rule count: init (key+param select) + param preparation +
  // operation select + address translation.
  auto unit_rules = [&](unsigned group, const MemoryPartition& part) {
    const std::uint32_t total = dp_->group(group).config().register_buckets;
    unsigned addr = 1;
    if (strategy_ == TranslationStrategy::kTcam && part.size != 0) {
      addr = (total / part.size - 1) + 1;
    }
    return 3u + addr;
  };

  // ------- placement -------
  const bool chained = algo == Algorithm::kSuMaxSum ||
                       algo == Algorithm::kMaxInterarrival ||
                       algo == Algorithm::kCounterBraids ||
                       algo == Algorithm::kOddSketch;

  bool placed = false;
  if (!chained) {
    // All rows in one CMU Group, one CMU per row.
    if (rows > 3) rows = 3;
    if (algo == Algorithm::kMrac || algo == Algorithm::kHyperLogLog ||
        algo == Algorithm::kLinearCounting) {
      rows = 1;  // single-array algorithms
    }
    for (unsigned g = 0; g < dp_->num_groups() && !placed; ++g) {
      unsigned mask_rules = 0;
      const auto key_sel = ensure_selector(g, key_spec, mask_rules);
      if (!key_sel) {
        undo_deployment(t);
        continue;
      }
      CompressedKeySelector param_sel{};
      if (spec.param.source == ParamSource::kCompressedKey &&
          !(spec.param.key_spec == key_spec)) {
        const auto ps = ensure_selector(g, spec.param.key_spec, mask_rules);
        if (!ps) {
          undo_deployment(t);
          continue;
        }
        param_sel = *ps;
      } else {
        param_sel = *key_sel;  // parameter derived from the key itself
      }

      // Pick `rows` CMUs with space and no filter conflict.
      std::vector<unsigned> chosen;
      std::vector<MemoryPartition> parts;
      for (unsigned c = 0; c < dp_->group(g).num_cmus() && chosen.size() < rows; ++c) {
        bool conflict = false;
        for (const CmuTaskEntry& e : dp_->group(g).cmu(c).entries()) {
          if (e.filter.intersects(spec.filter) && e.sample_probability >= 1.0 &&
              spec.sample_probability >= 1.0) {
            conflict = true;
            break;
          }
        }
        if (conflict) continue;
        if (auto part = allocator(g, c).allocate(t.buckets)) {
          chosen.push_back(c);
          parts.push_back(*part);
        }
      }
      if (chosen.size() < rows) {
        for (std::size_t i = 0; i < chosen.size(); ++i) {
          allocator(g, chosen[i]).release(parts[i]);
        }
        undo_deployment(t);
        continue;
      }

      // Build and install one entry per row.
      bool ok = true;
      for (unsigned r = 0; r < rows && ok; ++r) {
        CmuTaskEntry e = base_entry(*key_sel, r, parts[r]);
        switch (algo) {
          case Algorithm::kCms:
          case Algorithm::kMrac:
            e.op = StatefulOp::kCondAdd;
            e.p1 = lower_param(spec.param, param_sel);
            e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
            break;
          case Algorithm::kSuMaxMax:
            e.op = StatefulOp::kMax;
            e.p1 = lower_param(spec.param, param_sel);
            break;
          case Algorithm::kTowerSketch:
            e.op = StatefulOp::kCondAdd;
            e.p1 = ParamSelect::constant(1u << (32 - kTowerWidths[r]));
            e.p2 = ParamSelect::constant(
                low_mask32(kTowerWidths[r]) << (32 - kTowerWidths[r]));
            break;
          case Algorithm::kBloomFilter:
          case Algorithm::kLinearCounting:
            e.op = StatefulOp::kAndOr;
            if (spec.bloom_bit_packed) {
              e.prep = PrepFn::kBitSelectOneHot;
              e.p1 = ParamSelect::compressed(
                  param_sel, KeySlice{static_cast<std::uint8_t>(16 + 5 * (r % 3)), 5});
            } else {
              e.p1 = ParamSelect::constant(1);
              e.p2 = ParamSelect::constant(1);
            }
            break;
          case Algorithm::kHyperLogLog:
            e.op = StatefulOp::kMax;
            e.p1 = ParamSelect::compressed(param_sel, KeySlice{16, 16});
            break;
          case Algorithm::kBeauCoup:
            e.op = StatefulOp::kAndOr;
            e.prep = PrepFn::kCouponOneHot;
            e.coupon = CouponPrep{t.coupon_count, t.coupon_probability};
            e.p1 = ParamSelect::compressed(param_sel, KeySlice{0, 32});
            break;
          default:
            ok = false;
            continue;
        }
        const auto up = install_unit(g, chosen[r], e, parts[r], param_sel);
        if (!up) {
          ok = false;
          break;
        }
        RowPlacement row;
        row.units.push_back(*up);
        t.rows.push_back(row);
        t.report.table_rules += unit_rules(g, parts[r]);
      }
      if (!ok) {
        // Release partitions not yet bound into t.rows (the bound ones are
        // reclaimed by undo_deployment below).
        for (std::size_t i = t.rows.size(); i < chosen.size(); ++i) {
          allocator(g, chosen[i]).release(parts[i]);
        }
        undo_deployment(t);
        t.report = DeploymentReport{};
        continue;
      }
      if (algo == Algorithm::kBeauCoup) {
        t.report.table_rules += t.coupon_count + 1;  // one-hot window entries
      }
      t.report.hash_mask_rules += mask_rules;
      t.report.groups_used = 1;
      t.report.cmus_used = rows;
      placed = true;
    }
  } else {
    // Chained algorithms: units spread over distinct groups in pipeline
    // order.  SuMaxSum: `rows` arrays = `rows` units, one chain.
    // CounterBraids: 2 units.  MaxInterarrival: per row, 3 units.
    const unsigned units_per_chain =
        (algo == Algorithm::kCounterBraids || algo == Algorithm::kOddSketch) ? 2
        : algo == Algorithm::kSuMaxSum ? std::min(rows, 3u)
                                       : 3;
    const unsigned num_chains = algo == Algorithm::kMaxInterarrival ? std::min(rows, 3u) : 1;

    std::vector<RowPlacement> chains;
    unsigned total_mask_rules = 0;
    unsigned next_group = 0;
    bool ok = true;
    for (unsigned chain_idx = 0; chain_idx < num_chains && ok; ++chain_idx) {
      const std::uint32_t ch_a = next_chain_++;
      const std::uint32_t ch_b = next_chain_++;
      RowPlacement row;
      for (unsigned u = 0; u < units_per_chain && ok; ++u) {
        bool unit_placed = false;
        for (unsigned g = next_group; g < dp_->num_groups() && !unit_placed; ++g) {
          unsigned mask_rules = 0;
          const auto key_sel = ensure_selector(g, key_spec, mask_rules);
          if (!key_sel) continue;
          for (unsigned c = 0; c < dp_->group(g).num_cmus() && !unit_placed; ++c) {
            bool conflict = false;
            for (const CmuTaskEntry& e : dp_->group(g).cmu(c).entries()) {
              if (e.filter.intersects(spec.filter) && e.sample_probability >= 1.0 &&
                  spec.sample_probability >= 1.0) {
                conflict = true;
                break;
              }
            }
            if (conflict) continue;
            auto part = allocator(g, c).allocate(t.buckets);
            if (!part) continue;

            CmuTaskEntry e = base_entry(*key_sel, u, *part);
            switch (algo) {
              case Algorithm::kSuMaxSum:
                e.op = StatefulOp::kCondAdd;
                e.p1 = lower_param(spec.param, *key_sel);
                e.p2 = u == 0 ? ParamSelect::constant(0xFFFF'FFFFu)
                              : ParamSelect::chain(ch_a);
                e.chain_out = ch_a;
                e.chain_fallback = u != 0;  // keep running min on no-update
                break;
              case Algorithm::kCounterBraids:
                e.op = StatefulOp::kCondAdd;
                e.p1 = lower_param(spec.param, *key_sel);
                if (u == 0) {
                  e.p2 = ParamSelect::constant(kBraidsLayer1Cap);
                  e.chain_out = ch_a;
                } else {
                  e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
                  e.prep = PrepFn::kKeepOnChainZero;
                  e.chain_gate = ch_a;
                }
                break;
              case Algorithm::kOddSketch:
                if (u == 0) {  // dedup gate: has this flow toggled already?
                  e.op = StatefulOp::kAndOr;
                  e.prep = PrepFn::kBitSelectOneHot;
                  e.p1 = ParamSelect::compressed(*key_sel, KeySlice{17, 5});
                  e.output_old_value = true;
                  e.chain_out = ch_a;
                } else {  // parity toggle in the reserved XOR slot
                  // The toggle needs the fourth SALU action slot; skip CMUs
                  // whose slot is already taken by another preload instead
                  // of letting preload_op throw mid-deployment.
                  if (!dp_->group(g).cmu(c).salu().has_op(StatefulOp::kXor) &&
                      dp_->group(g).cmu(c).salu().loaded_ops() >=
                          dataplane::TofinoModel::kMaxRegisterActions) {
                    allocator(g, c).release(*part);
                    continue;
                  }
                  dp_->group(g).cmu(c).preload_op(StatefulOp::kXor);
                  e.op = StatefulOp::kXor;
                  e.prep = PrepFn::kBitSelectOneHotGated;
                  e.chain_gate = ch_a;
                  e.p1 = ParamSelect::compressed(*key_sel, KeySlice{22, 5});
                }
                break;
              case Algorithm::kMaxInterarrival:
                if (u == 0) {  // Bloom filter: have we seen this flow?
                  e.op = StatefulOp::kAndOr;
                  e.prep = PrepFn::kBitSelectOneHot;
                  e.p1 = ParamSelect::compressed(*key_sel, KeySlice{17, 5});
                  e.output_old_value = true;
                  e.chain_out = ch_a;  // gate: 1 = seen before
                } else if (u == 1) {  // last-arrival timestamp
                  e.op = StatefulOp::kMax;
                  e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
                  e.output_old_value = true;
                  e.chain_out = ch_b;  // previous timestamp
                } else {  // max inter-arrival
                  e.op = StatefulOp::kMax;
                  e.prep = PrepFn::kSubtractGated;
                  e.chain_gate = ch_a;
                  e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
                  e.p2 = ParamSelect::chain(ch_b);
                }
                break;
              default:
                break;
            }
            const auto up = install_unit(g, c, e, *part, *key_sel);
            if (!up) {
              allocator(g, c).release(*part);
              continue;
            }
            row.units.push_back(*up);
            t.report.table_rules += unit_rules(g, *part);
            total_mask_rules += mask_rules;
            next_group = g + 1;  // chain flows strictly forward
            unit_placed = true;
          }
        }
        if (!unit_placed) ok = false;
      }
      if (ok) {
        chains.push_back(row);
        next_group = algo == Algorithm::kMaxInterarrival ? next_group : 0;
      }
    }
    if (ok && !chains.empty()) {
      t.rows = std::move(chains);
      t.report.hash_mask_rules = total_mask_rules;
      unsigned cmus = 0;
      for (const auto& r : t.rows) cmus += static_cast<unsigned>(r.units.size());
      t.report.cmus_used = cmus;
      t.report.groups_used = cmus;  // one group per chained unit
      placed = true;
    } else {
      undo_deployment(t);
    }
  }

  gc_unreferenced_units();
  if (!placed) {
    deploy_failures_counter_->inc();
    result.error = "insufficient resources (keys / CMUs / memory)";
    return result;
  }
  t.cumulative_delay_ms = t.report.delay_ms();
  tasks_[public_id] = t;
  deploys_counter_->inc();
  result.ok = true;
  result.task_id = public_id;
  result.report = t.report;
  return result;
}

bool Controller::remove_task(std::uint32_t id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return false;
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.remove_task", id);
  // Merge before undo_deployment clears the task's partitions — see
  // add_task for why merge-after-clear would be wrong.
  dp_->merge_shards();
  undo_deployment(it->second);
  tasks_.erase(it);
  removals_counter_->inc();
  // Removal never rolls back, but paranoid mode still re-verifies so that
  // residual corruption surfaces through last_verify_errors().
  if (paranoid_) {
    trace::Span gate("ctl.verify_gate");
    last_verify_errors_ = run_verify_gate();
  }
  recompile_and_publish();
  return true;
}

DeployResult Controller::resize_task(std::uint32_t id, std::uint32_t new_buckets) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return {false, "unknown task", 0, {}};
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.resize_task", id);
  // Merge before the replacement/reclaim dance rearranges partitions —
  // see add_task for why merge-after-clear would be wrong.
  dp_->merge_shards();
  TaskSpec spec = it->second.spec;
  spec.memory_buckets = new_buckets;
  // Deploy the replacement first (traffic is diverted once it is live),
  // then reclaim the frozen original (paper §6).  The public task id is
  // stable across the swap.
  DeployResult fresh = deploy(spec, next_id_);
  if (!fresh.ok) return fresh;
  ++next_id_;
  const double prior_delay = it->second.cumulative_delay_ms;
  auto node = tasks_.extract(fresh.task_id);
  remove_task(id);
  node.key() = id;
  node.mapped().id = id;
  node.mapped().cumulative_delay_ms += prior_delay;
  tasks_.insert(std::move(node));
  resizes_counter_->inc();
  fresh.task_id = id;
  // The intermediate remove_task() published with the replacement still
  // under its temporary id; republish so the plan's ownership labels carry
  // the preserved public id.
  recompile_and_publish();
  return fresh;
}

std::pair<DeployResult, DeployResult> Controller::split_task(std::uint32_t id) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) return {{false, "unknown task", 0, {}}, {}};
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.split_task", id);
  const TaskSpec& spec = it->second.spec;
  const TaskFilter& f = spec.filter;

  TaskSpec a = spec, b = spec;
  if (f.src_len < 32) {
    a.filter.src_len = static_cast<std::uint8_t>(f.src_len + 1);
    b.filter.src_len = a.filter.src_len;
    b.filter.src_ip = f.src_ip | (1u << (31 - f.src_len));
    a.name += "/lo";
    b.name += "/hi";
  } else if (f.dst_len < 32) {
    a.filter.dst_len = static_cast<std::uint8_t>(f.dst_len + 1);
    b.filter.dst_len = a.filter.dst_len;
    b.filter.dst_ip = f.dst_ip | (1u << (31 - f.dst_len));
    a.name += "/lo";
    b.name += "/hi";
  } else {
    return {{false, "filter is a host route; nothing to split", 0, {}}, {}};
  }

  DeployResult ra = deploy(a, next_id_);
  if (!ra.ok) return {ra, {}};
  ++next_id_;
  DeployResult rb = deploy(b, next_id_);
  if (!rb.ok) {
    remove_task(ra.task_id);
    return {rb, {}};
  }
  ++next_id_;
  remove_task(id);
  return {ra, rb};
}

const DeployedTask* Controller::task(std::uint32_t id) const noexcept {
  const auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> Controller::task_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(tasks_.size());
  for (const auto& [id, t] : tasks_) out.push_back(id);
  return out;
}

void Controller::clear_task_state(std::uint32_t id) {
  const DeployedTask& t = require(id);
  for (const RowPlacement& row : t.rows) {
    for (const UnitPlacement& up : row.units) {
      dp_->group(up.group).cmu(up.cmu).reg().clear_range(up.partition.base,
                                                         up.partition.end());
    }
  }
}

void Controller::clear_all_state() {
  for (const auto& [id, t] : tasks_) clear_task_state(id);
}

std::uint32_t Controller::free_buckets(unsigned group, unsigned cmu) const {
  const auto it = allocators_.find({group, cmu});
  return it == allocators_.end() ? dp_->group(group).config().register_buckets
                                 : it->second.free_buckets();
}

// ---------- readout ----------

const DeployedTask& Controller::require(std::uint32_t id) const {
  // Every by-id access can precede a register readout (or clear): fold
  // outstanding shard deltas first so queries always see exactly what a
  // sequential run would have produced.  Cheap when no pool is enabled or
  // no shard is dirty.
  dp_->merge_shards();
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::out_of_range("Controller: unknown task id");
  return it->second;
}

namespace {

struct ProbeView {
  const Cmu* cmu;
  const CmuTaskEntry* entry;
  std::uint32_t addr;
  std::uint32_t value;
  std::vector<std::uint32_t> unit_keys;
};

}  // namespace

static ProbeView probe_unit(const FlyMonDataPlane& dp, const UnitPlacement& up,
                            const Packet& probe) {
  const CmuGroup& g = dp.group(up.group);
  const Cmu& cmu = g.cmu(up.cmu);
  const CmuTaskEntry* e = cmu.find(up.phys_id);
  if (e == nullptr) throw std::logic_error("Controller: entry vanished");
  ProbeView v;
  v.cmu = &cmu;
  v.entry = e;
  v.unit_keys = g.compute_keys(serialize_candidate_key(probe));
  v.addr = cmu.probe_address(*e, v.unit_keys);
  v.value = cmu.reg().read(v.addr);
  return v;
}

std::uint64_t Controller::read_row_value(const DeployedTask& t, const RowPlacement& row,
                                         const Packet& probe) const {
  switch (t.algorithm) {
    case Algorithm::kCounterBraids: {
      // Layer-1 value saturates at the cap; layer-2 absorbs the rest.
      std::uint64_t total = 0;
      for (const UnitPlacement& up : row.units) total += probe_unit(*dp_, up, probe).value;
      return total;
    }
    case Algorithm::kSuMaxSum: {
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      for (const UnitPlacement& up : row.units) {
        best = std::min<std::uint64_t>(best, probe_unit(*dp_, up, probe).value);
      }
      return best;
    }
    default:
      return probe_unit(*dp_, row.units.at(0), probe).value;
  }
}

std::uint64_t Controller::query_value(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  if (t.algorithm == Algorithm::kTowerSketch) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_saturated = 0;
    bool found = false;
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      const unsigned width = kTowerWidths[r % 3];
      const std::uint32_t raw = static_cast<std::uint32_t>(
          probe_unit(*dp_, t.rows[r].units.at(0), probe).value);
      const std::uint32_t v = raw >> (32 - width);
      if (v == low_mask32(width)) {
        max_saturated = std::max<std::uint64_t>(max_saturated, v);
      } else {
        best = std::min<std::uint64_t>(best, v);
        found = true;
      }
    }
    return found ? best : max_saturated;
  }
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const RowPlacement& row : t.rows) {
    best = std::min(best, read_row_value(t, row, probe));
  }
  return best;
}

bool Controller::query_existence(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = probe_unit(*dp_, row.units.at(0), probe);
    if (t.spec.bloom_bit_packed) {
      PhvContext ctx;
      const std::uint32_t sel =
          v.cmu->resolve_param(v.entry->p1, probe, v.unit_keys, ctx);
      const std::uint32_t bit = 1u << (sel & 31u);
      if ((v.value & bit) == 0) return false;
    } else if (v.value == 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t Controller::query_max_interarrival_ns(std::uint32_t id,
                                                    const Packet& probe) const {
  const DeployedTask& t = require(id);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = probe_unit(*dp_, row.units.back(), probe);
    best = std::min<std::uint64_t>(best, v.value);
  }
  return best << kTsShift;
}

bool Controller::distinct_over_threshold(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = probe_unit(*dp_, row.units.at(0), probe);
    const unsigned coupons = static_cast<unsigned>(
        std::popcount(v.value & low_mask32(t.coupon_count)));
    if (coupons < t.coupon_threshold) return false;
  }
  return true;
}

double Controller::estimate_distinct(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  sketch::CouponConfig cfg;
  cfg.num_coupons = t.coupon_count;
  cfg.draw_probability = t.coupon_probability;
  cfg.collect_threshold = t.coupon_threshold;
  double best = std::numeric_limits<double>::max();
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = probe_unit(*dp_, row.units.at(0), probe);
    const unsigned coupons = static_cast<unsigned>(
        std::popcount(v.value & low_mask32(t.coupon_count)));
    best = std::min(best, cfg.expected_items_to_collect(coupons));
  }
  return best;
}

double Controller::estimate_cardinality(std::uint32_t id) const {
  const DeployedTask& t = require(id);
  const UnitPlacement& up = t.rows.at(0).units.at(0);
  const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
  if (t.algorithm == Algorithm::kLinearCounting) {
    // Bit-packed buckets set one of 32 bits each; unpacked ones (AND-OR
    // with p1 = p2 = 1) only ever hold 0 or 1, one bit per bucket.
    const std::uint64_t total_bits =
        std::uint64_t{up.partition.size} * (t.spec.bloom_bit_packed ? 32 : 1);
    std::uint64_t set = 0;
    for (std::uint32_t i = up.partition.base; i < up.partition.end(); ++i) {
      set += static_cast<std::uint64_t>(std::popcount(reg.read(i)));
    }
    const double m = static_cast<double>(total_bits);
    const std::uint64_t zeros = total_bits - set;
    // A full bitmap reports the estimator's ceiling m ln m (its value at one
    // zero bit), so the estimate never falls as the last bit fills.
    if (zeros == 0) return m * std::log(m);
    return -m * std::log(static_cast<double>(zeros) / m);
  }
  // HyperLogLog: registers hold max hash slices; rho = leading ones + 1.
  const unsigned b = log2_floor(up.partition.size);
  sketch::HyperLogLog hll(std::max(2u, b));
  for (std::uint32_t i = 0; i < (1u << std::max(2u, b)); ++i) {
    const std::uint32_t v =
        i < up.partition.size ? reg.read(up.partition.base + i) : 0;
    hll.load_register(i, rho_of_slice(v, 16));
  }
  return hll.estimate();
}

double Controller::estimate_entropy(std::uint32_t id) const {
  return sketch::Mrac::entropy_of_distribution(estimate_size_distribution(id));
}

std::map<std::uint32_t, double> Controller::estimate_size_distribution(
    std::uint32_t id) const {
  const DeployedTask& t = require(id);
  const UnitPlacement& up = t.rows.at(0).units.at(0);
  const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
  sketch::Mrac mrac(up.partition.size);
  for (std::uint32_t i = 0; i < up.partition.size; ++i) {
    mrac.load_counter(i, reg.read(up.partition.base + i));
  }
  return mrac.estimate_size_distribution();
}

Controller::TaskSnapshot Controller::snapshot_task(std::uint32_t id) const {
  const DeployedTask& t = require(id);
  TaskSnapshot snap;
  snap.task_id = id;
  for (const RowPlacement& row : t.rows) {
    const UnitPlacement& up = row.units.at(0);
    const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
    snap.row_cells.push_back(reg.read_range(up.partition.base, up.partition.end()));
  }
  return snap;
}

std::uint64_t Controller::query_snapshot(const TaskSnapshot& snap,
                                         const Packet& probe) const {
  const DeployedTask& t = require(snap.task_id);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t r = 0; r < t.rows.size() && r < snap.row_cells.size(); ++r) {
    const UnitPlacement& up = t.rows[r].units.at(0);
    const ProbeView v = probe_unit(*dp_, up, probe);
    const std::uint32_t offset = v.addr - up.partition.base;
    best = std::min<std::uint64_t>(best, snap.row_cells[r].at(offset));
  }
  return best;
}

std::vector<FlowKeyValue> Controller::detect_heavy_changers(
    std::uint32_t id, const TaskSnapshot& previous_epoch,
    const std::vector<FlowKeyValue>& candidates, std::uint64_t threshold) const {
  std::vector<FlowKeyValue> out;
  for (const FlowKeyValue& k : candidates) {
    const Packet probe = packet_from_candidate_key(k.bytes);
    const std::uint64_t now = query_value(id, probe);
    const std::uint64_t before = query_snapshot(previous_epoch, probe);
    const std::uint64_t delta = now > before ? now - before : before - now;
    if (delta >= threshold) out.push_back(k);
  }
  return out;
}

namespace {

/// Load the XOR unit's register partition into an OddSketch (one parity bit
/// per register bit).
sketch::OddSketch load_odd_sketch(const FlyMonDataPlane& dp, const DeployedTask& t) {
  if (t.algorithm != Algorithm::kOddSketch)
    throw std::invalid_argument("Controller: task is not an OddSketch task");
  const UnitPlacement& up = t.rows.at(0).units.back();
  const auto& reg = dp.group(up.group).cmu(up.cmu).reg();
  sketch::OddSketch os(std::uint64_t{up.partition.size} * 32);
  for (std::uint32_t i = 0; i < up.partition.size; ++i) {
    const std::uint32_t v = reg.read(up.partition.base + i);
    for (unsigned b = 0; b < 32; ++b) {
      os.load_parity(std::uint64_t{i} * 32 + b, (v >> b) & 1u);
    }
  }
  return os;
}

/// Two similarity tasks are comparable only when their XOR units share the
/// exact data-plane hash path (same group/CMU, same slices) and geometry.
void require_comparable(const FlyMonDataPlane& dp, const DeployedTask& a,
                        const DeployedTask& b) {
  const UnitPlacement& ua = a.rows.at(0).units.back();
  const UnitPlacement& ub = b.rows.at(0).units.back();
  const CmuTaskEntry* ea = dp.group(ua.group).cmu(ua.cmu).find(ua.phys_id);
  const CmuTaskEntry* eb = dp.group(ub.group).cmu(ub.cmu).find(ub.phys_id);
  if (ea == nullptr || eb == nullptr) throw std::logic_error("entry vanished");
  if (ua.group != ub.group || ua.cmu != ub.cmu ||
      !(ea->key_slice == eb->key_slice) || !(ea->p1.slice == eb->p1.slice) ||
      ua.partition.size != ub.partition.size) {
    throw std::invalid_argument(
        "Controller: similarity tasks have incompatible placements");
  }
}

}  // namespace

double Controller::estimate_set_size(std::uint32_t id) const {
  return load_odd_sketch(*dp_, require(id)).estimate_size();
}

double Controller::estimate_symmetric_difference(std::uint32_t a, std::uint32_t b) const {
  const DeployedTask& ta = require(a);
  const DeployedTask& tb = require(b);
  require_comparable(*dp_, ta, tb);
  return load_odd_sketch(*dp_, ta).estimate_symmetric_difference(load_odd_sketch(*dp_, tb));
}

double Controller::estimate_jaccard(std::uint32_t a, std::uint32_t b) const {
  const DeployedTask& ta = require(a);
  const DeployedTask& tb = require(b);
  require_comparable(*dp_, ta, tb);
  return load_odd_sketch(*dp_, ta).estimate_jaccard(load_odd_sketch(*dp_, tb));
}

// ---------- observability ----------

TaskHealth Controller::task_health(std::uint32_t id) const {
  const DeployedTask& t = require(id);
  TaskHealth h;
  h.task_id = t.id;
  h.name = t.spec.name;
  h.algorithm = t.algorithm;
  h.buckets = t.buckets;
  h.rows = static_cast<unsigned>(t.rows.size());
  h.cmus_used = t.report.cmus_used;
  h.table_rules = t.report.table_rules;
  h.hash_mask_rules = t.report.hash_mask_rules;
  h.cumulative_delay_ms = t.cumulative_delay_ms;
  for (const RowPlacement& row : t.rows) {
    std::uint64_t nonzero = 0;
    std::uint64_t cells = 0;
    for (const UnitPlacement& up : row.units) {
      const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
      for (std::uint32_t i = up.partition.base; i < up.partition.end(); ++i) {
        if (reg.read(i) != 0) ++nonzero;
      }
      cells += up.partition.size;
    }
    const double sat =
        cells == 0 ? 0.0 : static_cast<double>(nonzero) / static_cast<double>(cells);
    h.row_saturation.push_back(sat);
    h.max_saturation = std::max(h.max_saturation, sat);
  }
  return h;
}

std::vector<TaskHealth> Controller::health() const {
  std::vector<TaskHealth> out;
  out.reserve(tasks_.size());
  for (const auto& [id, t] : tasks_) out.push_back(task_health(id));
  return out;
}

void Controller::collect_telemetry() const {
  collect_dataplane_telemetry(*dp_, *registry_);
  // Surface tracing/profiling data through the same exporters: span
  // durations recorded since the last collection plus the per-stage
  // cycle breakdown.
  trace::SpanCollector::global().flush_to_registry(*registry_);
  trace::StageProfiler::global().flush_to_registry(*registry_);
  registry_->gauge("flymon_tasks_active").set(static_cast<double>(tasks_.size()));
  for (const TaskHealth& h : health()) {
    const std::string id = std::to_string(h.task_id);
    registry_->gauge("flymon_task_buckets", {{"task", id}}).set(h.buckets);
    registry_->gauge("flymon_task_rules",
                     {{"task", id}})
        .set(static_cast<double>(h.table_rules + h.hash_mask_rules));
    registry_->gauge("flymon_task_deploy_delay_ms_total", {{"task", id}})
        .set(h.cumulative_delay_ms);
    registry_->gauge("flymon_task_max_saturation", {{"task", id}})
        .set(h.max_saturation);
    for (std::size_t r = 0; r < h.row_saturation.size(); ++r) {
      registry_->gauge("flymon_task_row_saturation",
                       {{"task", id}, {"row", std::to_string(r)}})
          .set(h.row_saturation[r]);
    }
  }
}

std::vector<FlowKeyValue> Controller::detect_over_threshold(
    std::uint32_t id, const std::vector<FlowKeyValue>& candidates,
    std::uint64_t threshold) const {
  const DeployedTask& t = require(id);
  std::vector<FlowKeyValue> out;
  for (const FlowKeyValue& k : candidates) {
    const Packet probe = packet_from_candidate_key(k.bytes);
    const bool hit = t.algorithm == Algorithm::kBeauCoup
                         ? distinct_over_threshold(id, probe)
                         : query_value(id, probe) >= threshold;
    if (hit) out.push_back(k);
  }
  return out;
}

}  // namespace flymon::control
