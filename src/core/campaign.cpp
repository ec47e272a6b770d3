#include "core/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "io/campaign_state.hpp"
#include "nn/loss.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::core {

double CampaignResult::network_mean_delta_loss() const {
  if (layers.empty()) return 0.0;
  double s = 0.0;
  for (const auto& l : layers) s += l.mean_delta_loss;
  return s / static_cast<double>(layers.size());
}

int64_t CampaignProgress::completed_trials() const {
  int64_t n = 0;
  for (const auto& l : layers) {
    for (uint8_t d : l.done) n += d;
  }
  return n;
}

int64_t CampaignProgress::total_trials() const {
  int64_t n = 0;
  for (const auto& l : layers) n += static_cast<int64_t>(l.done.size());
  return n;
}

namespace {

/// Copy parameter and buffer values from `src` into `dst` positionally
/// (both trees enumerate depth-first in registration order).
void copy_state(nn::Module& src, nn::Module& dst) {
  const auto sp = src.parameters();
  const auto dp = dst.parameters();
  const auto sb = src.buffers();
  const auto db = dst.buffers();
  if (sp.size() != dp.size() || sb.size() != db.size()) {
    throw std::invalid_argument(
        "run_campaign: make_replica produced a model with a different "
        "parameter/buffer count than the primary");
  }
  for (size_t i = 0; i < sp.size(); ++i) {
    if (sp[i]->value.shape() != dp[i]->value.shape()) {
      throw std::invalid_argument(
          "run_campaign: replica parameter shape mismatch at '" +
          sp[i]->name + "'");
    }
    dp[i]->value = sp[i]->value;
  }
  for (size_t i = 0; i < sb.size(); ++i) {
    db[i]->value = sb[i]->value;
  }
}

bool shard_owns(int64_t ti, int shards, int shard_index) {
  return shards <= 1 || ti % shards == shard_index;
}

/// Per-trial observations captured by the worker that ran the trial.
/// Workers write disjoint slots; the sequential post-block section turns
/// them into "trial" records and histogram samples in ascending trial
/// order, so the analytics stream is deterministic at any thread count.
struct TrialMeta {
  int64_t element = -1;
  int bit = -1;  ///< first perturbed bit position (LSB = 0)
  int64_t affected = 0;  ///< elements the primary fault perturbed
  std::string metadata_field;
  int64_t metadata_index = -1;
  float value_before = 0.0f;
  float value_after = 0.0f;
  int64_t golden_top1 = -1;
  int64_t faulty_top1 = -1;
  int64_t latency_ns = 0;  ///< arm -> disarm, one full faulty inference
};

/// Top-1 class of sample 0 in a [batch, classes] logits tensor. First
/// maximum wins, matching ops::argmax_rows.
int64_t sample0_top1(const Tensor& logits, size_t n_samples) {
  if (n_samples == 0) return -1;
  const int64_t classes =
      logits.numel() / static_cast<int64_t>(n_samples);
  const float* row = logits.cdata();
  int64_t best = 0;
  for (int64_t c = 1; c < classes; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

/// Whether a campaign over `cfg` injects at `site`. Skipped sites still
/// advance the site index, keeping each layer's RNG streams stable under
/// cfg.layers filtering.
bool campaigned(const LayerSite& site, const CampaignConfig& cfg) {
  if (!cfg.layers.empty() &&
      std::find(cfg.layers.begin(), cfg.layers.end(), site.path) ==
          cfg.layers.end()) {
    return false;
  }
  // Value-only formats have no metadata campaign.
  return cfg.site != InjectionSite::kMetadata ||
         site.act_format->has_metadata();
}

/// The config-echo comparator of fold_campaign_progress: the first field
/// where `a` and `b` disagree, or "" when both are states of the same
/// campaign over the same model, batch and layer structure. Shard fields
/// are left to the callers, which each have their own shard rule.
std::string echo_mismatch(const CampaignProgress& a,
                          const CampaignProgress& b) {
  if (a.format_spec != b.format_spec) return "format";
  if (a.site != b.site) return "injection site";
  if (a.model != b.model) return "error model";
  if (a.injections_per_layer != b.injections_per_layer) {
    return "injections per layer";
  }
  if (a.num_bits != b.num_bits) return "bits per injection";
  if (a.seed != b.seed) return "seed";
  if (a.sites_per_trial != b.sites_per_trial) return "sites per trial";
  if (!(a.ber == b.ber)) return "bit error rate";
  if (a.burst_len != b.burst_len) return "burst length";
  if (a.model_name != b.model_name) return "model";
  if (a.eval_samples != b.eval_samples) return "sample count";
  // Bitwise: any change to weights, batch, or kernels shows up here. The
  // logit digest is the real tripwire — accuracy over a small batch is
  // quantised coarsely enough for two different models to tie.
  if (!(a.golden_accuracy == b.golden_accuracy) ||
      a.golden_digest != b.golden_digest) {
    return "golden reference — model weights or evaluation batch";
  }
  if (a.layers.size() != b.layers.size()) return "layer set";
  for (size_t i = 0; i < a.layers.size(); ++i) {
    const LayerProgress& la = a.layers[i];
    const LayerProgress& lb = b.layers[i];
    if (la.site_index != lb.site_index || la.path != lb.path ||
        la.done.size() != lb.done.size() ||
        la.outcomes.size() != la.done.size() ||
        lb.outcomes.size() != lb.done.size()) {
      return "layer '" + la.path + "'";
    }
  }
  return "";
}

}  // namespace

CampaignEngine::CampaignEngine(nn::Module& model, const data::Batch& batch,
                               const CampaignConfig& cfg)
    : cfg_(cfg), batch_(batch) {
  obs::AttrScope campaign_attr(cfg_.format_spec, "");
  if (cfg_.sites_per_trial < 1) {
    throw std::invalid_argument(
        "CampaignEngine: sites_per_trial must be >= 1");
  }
  model.eval();
  EmulatorConfig ecfg;
  ecfg.format_spec = cfg_.format_spec;

  // Worker slots. Replicas must be built and given the primary's weights
  // BEFORE the primary is instrumented: quantisation is not idempotent (an
  // int8 scale recomputed from already-quantised data differs), so copying
  // after attach would double-quantise the replicas.
  const int64_t nT = cfg_.injections_per_layer;
  int nslots = 1;
  if (cfg_.make_replica) {
    nslots = std::clamp<int64_t>(
        std::min<int64_t>(parallel::num_threads(), nT), 1, 64);
  }
  slots_.resize(static_cast<size_t>(nslots));
  slots_[0].model = &model;
  for (size_t w = 1; w < slots_.size(); ++w) {
    slots_[w].owned = cfg_.make_replica();
    slots_[w].model = slots_[w].owned.get();
    slots_[w].model->eval();
    copy_state(model, *slots_[w].model);
  }
  slots_[0].emu = std::make_unique<Emulator>(model, ecfg);
  slots_[0].inj = std::make_unique<Injector>(*slots_[0].emu, cfg_.seed);
  // Replicas share the primary's post-quantisation weight tensors instead
  // of re-quantising their own copies: attach becomes O(1) per parameter
  // and the quantised weights exist once, however many workers run. A
  // trial that corrupts a weight detaches a private copy via COW.
  EmulatorConfig rcfg = ecfg;
  rcfg.weight_source = &model;
  for (size_t w = 1; w < slots_.size(); ++w) {
    slots_[w].emu = std::make_unique<Emulator>(*slots_[w].model, rcfg);
    slots_[w].inj = std::make_unique<Injector>(*slots_[w].emu, cfg_.seed);
  }
  Emulator& emu = *slots_[0].emu;

  // Golden reference *under emulation* (fault-free but format-quantised):
  // faults are measured against the format's own clean behaviour. The
  // replicas share it — identical weights and deterministic kernels make
  // their fault-free logits bitwise equal to the primary's.
  //
  // With the prefix cache on, the same pass also records every module's
  // post-hook output into a ReplayPlan (O(1) COW shares — the plan adds no
  // forward cost), so trials can replay only the suffix from their
  // injection site. The cached tensors are golden state: any in-place
  // write during a trial detaches via copy-on-write because the plan holds
  // a share, so the cache can never be corrupted.
  {
    obs::Span golden_span("campaign", "golden_run");
    golden_ = run_golden(model, batch_,
                         cfg_.use_prefix_cache ? &plan0_ : nullptr);
  }
  const bool cache_on = cfg_.use_prefix_cache && plan0_.usable();
  if (cfg_.use_prefix_cache && !cache_on) {
    obs::log(1,
             "campaign: prefix cache unusable (a module ran more than once "
             "in the golden forward); falling back to full forwards");
  }
  if (cache_on) {
    obs::add(obs::Counter::kPrefixCacheBytes,
             static_cast<uint64_t>(plan0_.cache_bytes()));
    slots_[0].plan = &plan0_;
    // Replica plans re-key the primary's records onto each replica's
    // module tree; the cached tensors themselves are shared, not copied.
    // Reserved up front, so the slots' pointers stay valid.
    rplans_.reserve(slots_.size() - 1);
    for (size_t w = 1; w < slots_.size(); ++w) {
      rplans_.push_back(plan0_.translate(model, *slots_[w].model));
      slots_[w].plan = &rplans_.back();
    }
  }

  skeleton_.format_spec = cfg_.format_spec;
  skeleton_.site = cfg_.site;
  skeleton_.model = cfg_.model;
  skeleton_.injections_per_layer = nT;
  skeleton_.num_bits = cfg_.num_bits;
  skeleton_.seed = cfg_.seed;
  skeleton_.sites_per_trial = cfg_.sites_per_trial;
  skeleton_.ber = cfg_.ber;
  skeleton_.burst_len = cfg_.burst_len;
  skeleton_.golden_accuracy = nn::accuracy(golden_.logits, batch_.labels);
  skeleton_.golden_digest =
      fnv1a(kFnv1aBasis, golden_.logits.cdata(),
            static_cast<size_t>(golden_.logits.numel()) * sizeof(float));

  // Enumerate the campaigned sites. The site index is persisted per layer,
  // so RNG streams stay stable across save/resume/shard boundaries too.
  for (size_t li = 0; li < emu.sites().size(); ++li) {
    const LayerSite& site = emu.sites()[li];
    if (!campaigned(site, cfg_)) continue;
    LayerProgress lp;
    lp.site_index = li;
    lp.path = site.path;
    lp.done.assign(static_cast<size_t>(nT), 0);
    lp.outcomes.assign(static_cast<size_t>(nT), FaultOutcome{});
    skeleton_.layers.push_back(std::move(lp));

    // Companion pool for multi-point trials: instrumented sites strictly
    // after the campaigned one (disjoint suffix segments — a companion
    // never perturbs state the primary fault's own layer consumes).
    // Metadata campaigns keep only metadata-capable formats, mirroring the
    // primary-site filter.
    LayerPlan plan;
    if (cfg_.sites_per_trial > 1) {
      for (size_t lj = li + 1; lj < emu.sites().size(); ++lj) {
        if (cfg_.site == InjectionSite::kMetadata &&
            !emu.sites()[lj].act_format->has_metadata()) {
          continue;
        }
        plan.companions.push_back(lj);
      }
    }
    plan.want_comp = std::min<int64_t>(
        cfg_.sites_per_trial - 1,
        static_cast<int64_t>(plan.companions.size()));
    // Suffix replay is exact only if every fault of the trial re-executes:
    // a companion the plan would serve from cache (possible only if
    // site-registration order diverges from execution order) silently
    // drops its fault, so such layers run full forwards instead. The
    // companion pool itself never depends on the cache mode — cache on and
    // off stay bitwise identical.
    plan.cache_on = cache_on;
    for (size_t lj : plan.companions) {
      if (plan.cache_on &&
          plan0_.skipped_for(*site.module, *emu.sites()[lj].module)) {
        plan.cache_on = false;
        break;
      }
    }
    layers_.push_back(std::move(plan));
  }
}

CampaignProgress CampaignEngine::fresh_progress(
    const CampaignRunOptions& opts) const {
  CampaignProgress prog = skeleton_;
  prog.shards = opts.shards;
  prog.shard_index = opts.shard_index;
  prog.model_name = opts.model_name;
  prog.eval_samples = opts.eval_samples;
  return prog;
}

void CampaignEngine::run(CampaignProgress& prog,
                         const CampaignRunOptions& opts) {
  obs::AttrScope campaign_attr(cfg_.format_spec, "");
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument("CampaignEngine::run: " + what);
  };
  require(opts.shards >= 1 && opts.shard_index >= 0 &&
              opts.shard_index < opts.shards,
          "shard_index must be in [0, shards)");
  require(opts.checkpoint_every >= 0 && opts.abort_after >= 0,
          "checkpoint_every/abort_after must be >= 0");
  require((opts.checkpoint_every == 0 && opts.abort_after == 0) ||
              !opts.checkpoint_path.empty(),
          "checkpointing requires a checkpoint_path");
  require(prog.layers.size() == layers_.size(),
          "progress does not belong to this campaign");
  // A lease ending past the campaign means the lessor sized the trial
  // space against a different model or layer set — reject loudly rather
  // than silently running a truncated lease.
  const bool leased = opts.lease_hi >= 0;
  require(!leased || (opts.lease_lo >= 0 && opts.lease_lo <= opts.lease_hi &&
                      opts.lease_hi <= total_trials()),
          "lease [" + std::to_string(opts.lease_lo) + ", " +
              std::to_string(opts.lease_hi) + ") is not within the " +
              std::to_string(total_trials()) + "-trial campaign");
  if (opts.resume_from != nullptr) {
    // A checkpoint of another campaign, model or batch would silently mix
    // statistics: the fold's echo check makes that a hard IoError.
    const CampaignProgress& saved = *opts.resume_from;
    if (saved.shards != prog.shards || saved.shard_index != prog.shard_index) {
      throw io::IoError(
          "resume: checkpoint does not match this campaign (different shard "
          "partition)");
    }
    fold_campaign_progress(prog, saved, "resume: checkpoint");
    obs::add(obs::Counter::kCampaignResumes);
    obs::log(1, "campaign: resumed from checkpoint with " +
                    std::to_string(prog.completed_trials()) + "/" +
                    std::to_string(prog.total_trials()) + " trials done");
  }

  // The trials this run executes, per campaign layer: owned by the shard
  // and the lease (global index, campaign position order), and not already
  // done. Progress counts every trial the shard owns.
  const int64_t nT = cfg_.injections_per_layer;
  std::vector<std::vector<int64_t>> pending(prog.layers.size());
  int64_t owned = 0;
  int64_t owned_done = 0;
  for (size_t lpos = 0; lpos < prog.layers.size(); ++lpos) {
    for (int64_t ti = 0; ti < nT; ++ti) {
      if (!shard_owns(ti, opts.shards, opts.shard_index)) continue;
      ++owned;
      const int64_t g = static_cast<int64_t>(lpos) * nT + ti;
      if (prog.layers[lpos].done[static_cast<size_t>(ti)] != 0) {
        ++owned_done;
      } else if (!leased || (g >= opts.lease_lo && g < opts.lease_hi)) {
        pending[lpos].push_back(ti);
      }
    }
  }

  // Analytics are capture-gated: with no report stream and metrics off the
  // trial loop does no clock reads, no meta copies, and no histogram
  // lookups. When on, workers record into disjoint TrialMeta slots and the
  // sequential post-block section emits everything in ascending trial
  // order — observation only, never an input to any trial.
  const bool capture = opts.run_log != nullptr || obs::metrics_enabled();
  const bool heartbeat_on =
      opts.run_log != nullptr || obs::metrics_enabled() || obs::log_level() >= 1;
  const int64_t run_t0 = heartbeat_on ? obs::now_ns() : 0;
  obs::Histogram* h_latency = nullptr;
  obs::Histogram* h_delta = nullptr;
  obs::Histogram* h_bits = nullptr;
  obs::Histogram* h_bit_sdc = nullptr;
  if (capture) {
    h_latency = &obs::histogram("campaign.trial_latency_us");
    h_delta = &obs::histogram("campaign.trial_delta_loss");
    h_bits = &obs::histogram("campaign.bit_flips");
    h_bit_sdc = &obs::histogram("campaign.bit_sdc");
  }

  // Every random choice of trial ti at site li draws from the child stream
  // (seed, li * nT + ti): outcomes are a pure function of the trial id, so
  // any worker may run any trial in any order — across threads, process
  // restarts, and shards — and the aggregate matches the serial path
  // bitwise.
  const Rng base(cfg_.seed);
  Emulator& emu = *slots_[0].emu;
  const int nslots = static_cast<int>(slots_.size());
  int64_t executed = 0;
  bool aborted = false;

  for (size_t lpos = 0; lpos < prog.layers.size(); ++lpos) {
    LayerProgress& lp = prog.layers[lpos];
    const std::vector<int64_t>& todo = pending[lpos];
    if (todo.empty()) continue;
    const LayerSite& site = emu.sites()[static_cast<size_t>(lp.site_index)];
    const LayerPlan& plan = layers_[lpos];

    obs::Span layer_span("campaign", "layer", site.path);
    const int64_t layer_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
    int64_t layer_done = 0;

    const int64_t block = opts.checkpoint_every > 0
                              ? opts.checkpoint_every
                              : static_cast<int64_t>(todo.size());
    for (size_t start = 0; start < todo.size() && !aborted;
         start += static_cast<size_t>(block)) {
      const int64_t cnt = std::min<int64_t>(
          block, static_cast<int64_t>(todo.size() - start));
      std::vector<TrialMeta> metas;
      if (capture) metas.assign(static_cast<size_t>(cnt), TrialMeta{});
      parallel::parallel_for_workers(
          0, cnt, /*grain=*/1, nslots, [&](int slot_index, int64_t lo,
                                           int64_t hi) {
            Slot& slot = slots_[static_cast<size_t>(slot_index)];
            for (int64_t k = lo; k < hi; ++k) {
              const int64_t ti = todo[start + static_cast<size_t>(k)];
              // Worker threads don't inherit the campaign's AttrScope
              // (attribution is thread-local): re-establish it per trial.
              obs::AttrScope trial_attr(cfg_.format_spec, site.path);
              obs::Span trial_span("campaign", "trial");
              const int64_t trial_t0 = capture ? obs::now_ns() : 0;
              InjectionSpec spec;
              spec.layer_path = site.path;
              spec.site = cfg_.site;
              spec.model = cfg_.model;
              spec.num_bits = cfg_.num_bits;
              spec.ber = cfg_.ber;
              spec.burst_len = cfg_.burst_len;
              Rng trial_rng =
                  base.child(lp.site_index * static_cast<uint64_t>(nT) +
                             static_cast<uint64_t>(ti));
              if (plan.want_comp == 0) {
                slot.inj->arm(spec, trial_rng);
              } else {
                // Companion selection draws from the trial stream before
                // the injector copies it, so every random choice of the
                // trial — selection included — is a pure function of
                // (seed, site index, trial index).
                const std::vector<size_t>& companions = plan.companions;
                std::vector<size_t> chosen;
                chosen.reserve(static_cast<size_t>(plan.want_comp));
                while (static_cast<int64_t>(chosen.size()) < plan.want_comp) {
                  const size_t pick = companions[static_cast<size_t>(
                      trial_rng.randint(
                          0, static_cast<int64_t>(companions.size()) - 1))];
                  if (std::find(chosen.begin(), chosen.end(), pick) ==
                      chosen.end()) {
                    chosen.push_back(pick);
                  }
                }
                std::sort(chosen.begin(), chosen.end());
                std::vector<InjectionSpec> specs;
                specs.reserve(1 + static_cast<size_t>(plan.want_comp));
                specs.push_back(spec);
                for (size_t lj : chosen) {
                  InjectionSpec cspec = spec;
                  cspec.layer_path = emu.sites()[lj].path;
                  specs.push_back(std::move(cspec));
                }
                slot.inj->arm_multi(specs, trial_rng);
              }
              Tensor logits;
              if (plan.cache_on) {
                // Suffix replay: the prefix is served from the recorded
                // golden activations; only the site, its ancestors, and
                // the layers after it recompute.
                obs::Span replay_span("campaign", "suffix_replay");
                int64_t served = 0;
                logits = slot.model->forward_from(
                    *slot.plan,
                    *slot.emu->sites()[static_cast<size_t>(lp.site_index)]
                         .module,
                    batch_.images, &served);
                obs::add(obs::Counter::kPrefixCacheHits);
                obs::add(obs::Counter::kSuffixLayersSkipped,
                         static_cast<uint64_t>(served));
              } else {
                logits = (*slot.model)(batch_.images);
              }
              lp.outcomes[static_cast<size_t>(ti)] =
                  compare_to_golden(golden_, logits, batch_.labels);
              slot.inj->disarm();
              if (capture) {
                // disarm() keeps last_record(): read the resolved random
                // choices after timing the full arm -> disarm trial.
                TrialMeta& m = metas[static_cast<size_t>(k)];
                m.latency_ns = obs::now_ns() - trial_t0;
                if (const auto& rec = slot.inj->last_record()) {
                  m.element = rec->element;
                  m.bit = rec->bits.empty() ? -1 : rec->bits.front();
                  m.affected = rec->affected;
                  m.metadata_field = rec->metadata_field;
                  m.metadata_index = rec->metadata_index;
                  m.value_before = rec->value_before;
                  m.value_after = rec->value_after;
                }
                m.golden_top1 = golden_.predictions.empty()
                                    ? -1
                                    : golden_.predictions.front();
                m.faulty_top1 = sample0_top1(logits, batch_.labels.size());
              }
            }
          });
      for (int64_t k = 0; k < cnt; ++k) {
        lp.done[static_cast<size_t>(todo[start + static_cast<size_t>(k)])] =
            1;
      }
      executed += cnt;
      layer_done += cnt;
      obs::add(obs::Counter::kTrials, static_cast<uint64_t>(cnt));
      if (capture) {
        for (int64_t k = 0; k < cnt; ++k) {
          const int64_t ti = todo[start + static_cast<size_t>(k)];
          const FaultOutcome& o = lp.outcomes[static_cast<size_t>(ti)];
          const TrialMeta& m = metas[static_cast<size_t>(k)];
          h_latency->record(static_cast<double>(m.latency_ns) / 1000.0);
          h_delta->record(static_cast<double>(o.delta_loss));
          if (m.bit >= 0) {
            h_bits->record(static_cast<double>(m.bit));
            if (o.sdc) h_bit_sdc->record(static_cast<double>(m.bit));
          }
          if (opts.run_log != nullptr) {
            obs::JsonObject row;
            row.str("layer", lp.path)
                .num("site_index", lp.site_index)
                .num("trial", ti)
                .str("site", to_string(cfg_.site))
                .str("error_model", to_string(cfg_.model))
                .num("element", m.element)
                .num("bit", static_cast<int64_t>(m.bit))
                .num("affected", m.affected);
            if (!m.metadata_field.empty()) {
              row.str("metadata_field", m.metadata_field)
                  .num("metadata_index", m.metadata_index);
            }
            row.num("value_before", static_cast<double>(m.value_before))
                .num("value_after", static_cast<double>(m.value_after))
                .num("golden_top1", m.golden_top1)
                .num("faulty_top1", m.faulty_top1)
                .num("mismatched", o.mismatched_samples)
                .num("mismatch_rate", static_cast<double>(o.mismatch_rate))
                .num("delta_loss", static_cast<double>(o.delta_loss))
                .num("max_delta_loss",
                     static_cast<double>(o.max_delta_loss))
                .str("class", outcome_class(o));
            opts.run_log->event("trial", row);
          }
        }
      }
      if (heartbeat_on) {
        const int64_t done = owned_done + executed;
        const double secs =
            static_cast<double>(obs::now_ns() - run_t0) / 1e9;
        const double rate =
            secs > 0.0 ? static_cast<double>(executed) / secs : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(owned - done) / rate : 0.0;
        obs::set_gauge("campaign.trials_done", static_cast<double>(done));
        obs::set_gauge("campaign.trials_total", static_cast<double>(owned));
        obs::set_gauge("campaign.eta_seconds", eta);
        // Memory watermarks ride the heartbeat: a pure read of allocator
        // and /proc state (never a perturbation), published as mem.*
        // gauges and as additive schema-v2 heartbeat fields the report
        // scanner tolerates being absent.
        const obs::MemoryWatermarks mem = obs::sample_memory();
        char hb[160];
        std::snprintf(hb, sizeof(hb),
                      "campaign: %lld/%lld trials, %.1f trials/s, eta %.1fs",
                      static_cast<long long>(done),
                      static_cast<long long>(owned), rate, eta);
        obs::log(1, hb);
        if (opts.run_log != nullptr) {
          obs::JsonObject row;
          row.num("done", done)
              .num("total", owned)
              .num("trials_per_sec", rate)
              .num("eta_seconds", eta)
              .num("rss_bytes", mem.rss_bytes)
              .num("arena_bytes", mem.arena_live_bytes);
          opts.run_log->event("heartbeat", row);
        }
      }
      if (opts.checkpoint_every > 0) {
        io::save_campaign_progress(opts.checkpoint_path, prog);
      }
      if (opts.abort_after > 0 && executed >= opts.abort_after) {
        aborted = true;
      }
    }

    if (obs::metrics_enabled()) {
      const double secs =
          static_cast<double>(obs::now_ns() - layer_t0) / 1e9;
      const double rate =
          secs > 0.0 ? static_cast<double>(layer_done) / secs : 0.0;
      obs::set_gauge("campaign.trials_per_sec", rate);
      obs::log(1, "campaign layer " + site.path + ": " +
                      std::to_string(layer_done) + " trials, " +
                      std::to_string(rate) + " trials/s");
    }
    if (aborted) break;
  }

  if (aborted && !opts.checkpoint_path.empty()) {
    // Final checkpoint at the abort point, so the drill behaves exactly
    // like a kill right after the last periodic write.
    io::save_campaign_progress(opts.checkpoint_path, prog);
  }
}

CampaignProgress run_campaign_trials(nn::Module& model,
                                     const data::Batch& batch,
                                     const CampaignConfig& cfg,
                                     const CampaignRunOptions& opts) {
  obs::AttrScope campaign_attr(cfg.format_spec, "");
  obs::Span campaign_span("campaign", "run_campaign", cfg.format_spec);
  CampaignEngine engine(model, batch, cfg);
  CampaignProgress prog = engine.fresh_progress(opts);
  engine.run(prog, opts);
  return prog;
}

CampaignResult finalize_campaign(const CampaignProgress& progress) {
  if (!progress.complete()) {
    throw std::invalid_argument(
        "finalize_campaign: campaign progress is incomplete (" +
        std::to_string(progress.completed_trials()) + "/" +
        std::to_string(progress.total_trials()) + " trials done)");
  }
  CampaignResult result;
  result.golden_accuracy = progress.golden_accuracy;
  // Serial aggregation in trial order keeps the statistics (and their
  // floating-point rounding) independent of how the trials were scheduled,
  // sharded, or resumed.
  for (const LayerProgress& lp : progress.layers) {
    LayerCampaignResult lr;
    lr.layer = lp.path;
    // One exact reservation per vector: the trial count is known up front,
    // so the per-trial push_backs below never reallocate.
    lr.delta_losses.reserve(lp.outcomes.size());
    lr.sdc_flags.reserve(lp.outcomes.size());
    ConvergenceTracker tracker;
    for (const FaultOutcome& out : lp.outcomes) {
      ++lr.injections;
      if (out.sdc) ++lr.sdc_count;
      lr.mean_mismatch_rate += out.mismatch_rate;
      lr.max_delta_loss =
          std::max(lr.max_delta_loss, double(out.max_delta_loss));
      lr.delta_losses.push_back(out.delta_loss);
      lr.sdc_flags.push_back(out.sdc ? 1 : 0);
      tracker.add(out.delta_loss);
    }
    if (lr.injections > 0) {
      lr.mean_mismatch_rate /= static_cast<double>(lr.injections);
      lr.mean_delta_loss = tracker.mean();
      lr.ci95_delta_loss = tracker.ci95_halfwidth();
    }
    result.layers.push_back(std::move(lr));
  }
  return result;
}

void fold_campaign_progress(CampaignProgress& into,
                            const CampaignProgress& part,
                            const std::string& label) {
  if (const std::string what = echo_mismatch(part, into); !what.empty()) {
    throw io::IoError(label + " does not match this campaign (different " +
                      what + ")");
  }
  for (size_t j = 0; j < into.layers.size(); ++j) {
    const LayerProgress& pl = part.layers[j];
    LayerProgress& ml = into.layers[j];
    for (size_t ti = 0; ti < pl.done.size(); ++ti) {
      if (!pl.done[ti]) continue;
      if (ml.done[ti]) {
        throw io::IoError(label + ": trial " + std::to_string(ti) +
                          " of layer '" + ml.path + "' is already done");
      }
      ml.done[ti] = 1;
      ml.outcomes[ti] = pl.outcomes[ti];
    }
  }
}

CampaignProgress merge_campaign_progress(
    const std::vector<CampaignProgress>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("merge_campaign_progress: no inputs");
  }
  CampaignProgress merged = parts[0];
  std::vector<int> seen;
  seen.reserve(parts.size());
  seen.push_back(parts[0].shard_index);
  for (size_t i = 1; i < parts.size(); ++i) {
    const CampaignProgress& p = parts[i];
    const std::string label = "merge: input " + std::to_string(i);
    if (p.shards != parts[0].shards) {
      throw io::IoError(label +
                        " does not match this campaign (different shard "
                        "count)");
    }
    if (std::find(seen.begin(), seen.end(), p.shard_index) != seen.end()) {
      throw io::IoError("merge: duplicate shard index " +
                        std::to_string(p.shard_index));
    }
    seen.push_back(p.shard_index);
    fold_campaign_progress(merged, p, label);
  }
  // The merged state represents the whole campaign again: re-label it
  // unsharded so it can be finalized — or resumed, if shards are missing.
  merged.shards = 1;
  merged.shard_index = 0;
  return merged;
}

uint64_t campaign_digest(const CampaignResult& r) {
  uint64_t h = kFnv1aBasis;
  h = fnv1a(h, &r.golden_accuracy, sizeof(r.golden_accuracy));
  for (const auto& l : r.layers) {
    h = fnv1a(h, l.layer.data(), l.layer.size());
    h = fnv1a(h, &l.injections, sizeof(l.injections));
    h = fnv1a(h, &l.sdc_count, sizeof(l.sdc_count));
    h = fnv1a(h, &l.mean_mismatch_rate, sizeof(l.mean_mismatch_rate));
    h = fnv1a(h, &l.mean_delta_loss, sizeof(l.mean_delta_loss));
    h = fnv1a(h, &l.max_delta_loss, sizeof(l.max_delta_loss));
    h = fnv1a(h, &l.ci95_delta_loss, sizeof(l.ci95_delta_loss));
    if (!l.delta_losses.empty()) {
      h = fnv1a(h, l.delta_losses.data(),
                l.delta_losses.size() * sizeof(float));
    }
    if (!l.sdc_flags.empty()) {
      h = fnv1a(h, l.sdc_flags.data(), l.sdc_flags.size());
    }
  }
  return h;
}

CampaignResult run_campaign(nn::Module& model, const data::Batch& batch,
                            const CampaignConfig& cfg) {
  return finalize_campaign(run_campaign_trials(model, batch, cfg, {}));
}

}  // namespace ge::core
