// The three benchmark workloads and their layer probes.
//
//   fig3_forward   closed loop of batch-32 eval forwards of tiny_deit, one
//                  replica per format, round-robin (the paper's Fig. 3)
//   campaign_long  long offline fp16 value-site campaigns on tiny_resnet,
//                  run as `goldeneye campaign` runs them
//   served_mix     small simple_cnn campaigns submitted one at a time to
//                  an in-process net::Server over loopback
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/emulator.hpp"
#include "core/injector.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "formats/format_registry.hpp"
#include "models/model_factory.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "obs/metrics_server.hpp"
#include "obs/run_log.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace perfbench {

namespace {

using ge::Tensor;
namespace core = ge::core;
namespace data = ge::data;
namespace fmt = ge::fmt;
namespace models = ge::models;
namespace net = ge::net;
namespace nn = ge::nn;

// Seed tags: each derived input draws from its own stream of the seed.
enum Tag : uint64_t {
  kTagBatch = 1,
  kTagCampaign = 2,
  kTagSpot = 3,
  kTagSpec = 4,
  kTagProbe = 5,
};

const data::SyntheticVisionConfig kDataCfg{};

std::unique_ptr<data::SyntheticVision> make_data() {
  Span s("data.SyntheticVision");
  return std::make_unique<data::SyntheticVision>(kDataCfg);
}

models::TrainedModel load_model(const std::string& name,
                                const data::SyntheticVision& d,
                                const std::string& cache_dir) {
  Span s("models.ensure_trained." + name);
  return models::ensure_trained(name, d, cache_dir);
}

/// The library's replica recipe: a fresh model sharing the primary's
/// parameter and buffer storage (copy-on-write).
std::unique_ptr<nn::Module> make_replica(const std::string& name,
                                         nn::Module& primary) {
  Span s("models.make_model." + name);
  auto m = models::make_model(name, kDataCfg, 0);
  const auto sp = primary.parameters();
  const auto dp = m->parameters();
  const auto sb = primary.buffers();
  const auto db = m->buffers();
  for (size_t i = 0; i < sp.size() && i < dp.size(); ++i) {
    dp[i]->value = sp[i]->value;
  }
  for (size_t i = 0; i < sb.size() && i < db.size(); ++i) {
    db[i]->value = sb[i]->value;
  }
  m->eval();
  return m;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.cdata(), b.cdata(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool all_finite(const Tensor& t) {
  for (float v : t.cflat()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Tensor deep_copy(const Tensor& t) {
  return Tensor(t.shape(), std::vector<float>(t.cdata(), t.cdata() + t.numel()));
}

/// Span hooks on every module of `model`: a pre-hook opens "nn.<kind>",
/// the matching post-hook closes it. Hooks fire on the forward's thread
/// in strict nesting order, so the innermost open span is the module's.
class ModuleSpans {
 public:
  explicit ModuleSpans(nn::Module& model) {
    for (auto& [path, m] : model.named_modules()) {
      nn::Module* mod = m;
      const std::string name = "nn." + mod->kind();
      auto open = std::make_shared<std::vector<int64_t>>();
      hooks_.push_back({mod, mod->add_forward_pre_hook(
                                 [name, open](nn::Module&, Tensor&) {
                                   open->push_back(span_begin(name));
                                 })});
      hooks_.push_back({mod, mod->add_forward_hook(
                                 [open](nn::Module&, Tensor&) {
                                   if (open->empty()) return;
                                   span_end(open->back());
                                   open->pop_back();
                                 })});
    }
  }
  ~ModuleSpans() {
    for (auto& [m, h] : hooks_) m->remove_hook(h);
  }
  ModuleSpans(const ModuleSpans&) = delete;
  ModuleSpans& operator=(const ModuleSpans&) = delete;

 private:
  std::vector<std::pair<nn::Module*, nn::Module::HookHandle>> hooks_;
};

/// Time `arm` for `spec` on a fresh Emulator/Injector over `model`.
void probe_arm(nn::Module& model, const std::string& format,
               core::InjectionSite site, const std::string& label,
               uint64_t seed) {
  core::EmulatorConfig ecfg;
  ecfg.format_spec = format;
  core::Emulator emu(model, ecfg);
  core::Injector inj(emu, seed);
  core::InjectionSpec spec;
  spec.layer_path = emu.sites().front().path;
  spec.site = site;
  for (int i = 0; i < 200; ++i) {
    const ge::Rng trial_rng = ge::Rng(seed).child(static_cast<uint64_t>(i));
    {
      Span s("core.injector.arm." + label, i);
      inj.arm(spec, trial_rng);
    }
    inj.disarm();
  }
}

// =========================================================================
// fig3_forward
// =========================================================================

struct FormatCase {
  const char* label;
  const char* spec;  ///< empty = native (no Emulator)
};
const FormatCase kFig3Formats[] = {
    {"native", ""},       {"fp32", "fp_e8m23"},    {"fp16", "fp_e5m10"},
    {"bf16", "fp_e8m7"},  {"fxp", "fxp_1_3_12"},   {"int8", "int8"},
    {"bfp", "bfp_e8m7_b16"}, {"afp", "afp_e4m3"},
};
constexpr int64_t kFig3Batch = 32;

class Fig3Forward final : public Workload {
 public:
  explicit Fig3Forward(const Options& o) : o_(o) {}

  void setup(Results&) override {
    auto d = make_data();
    std::unique_ptr<nn::Module> primary = load_model("tiny_deit", *d, o_.cache_dir).model;
    const int64_t n = d->test().size();
    const int64_t offset = static_cast<int64_t>(
        derive(o_.seed, kTagBatch) % static_cast<uint64_t>(n - kFig3Batch + 1));
    batch_ = data::take(d->test(), offset, kFig3Batch);
    // The loaded model is the native replica; the others share its weights.
    for (const FormatCase& f : kFig3Formats) {
      Replica rep;
      rep.label = f.label;
      if (f.spec[0] == '\0') {
        rep.model = std::move(primary);
      } else {
        rep.model = make_replica("tiny_deit", *reps_.front().model);
        Span s(std::string("core.emulator.Emulator.") + f.label);  // attach
        core::EmulatorConfig ecfg;
        ecfg.format_spec = f.spec;
        rep.emu = std::make_unique<core::Emulator>(*rep.model, ecfg);
      }
      reps_.push_back(std::move(rep));
    }
  }

  void reference(Results& r) override {
    for (Replica& rep : reps_) {
      rep.reference = (*rep.model)(batch_.images);
      if (rep.label == "native") {
        r.check(all_finite(rep.reference), "fig3: native logits not finite");
      }
    }
    // block0.mlp.fc1's golden output feeds the format probes.
    nn::Module* fc1 = reps_.front().model->find_module("block0.mlp.fc1");
    if (fc1 == nullptr) throw std::runtime_error("tiny_deit has no block0.mlp.fc1");
    const auto h = fc1->add_forward_hook(
        [this](nn::Module&, Tensor& y) { fc1_out_ = deep_copy(y); });
    (*reps_.front().model)(batch_.images);
    fc1->remove_hook(h);
  }

  void begin_phase(bool traced) override {
    spans_.reset();
    if (traced) spans_ = std::make_unique<ModuleSpans>(*reps_.front().model);
  }

  double op(Results& r, const std::string& phase, int64_t index) override {
    const size_t n = reps_.size();
    for (size_t k = 0; k < n; ++k) {
      Replica& rep = reps_[(static_cast<size_t>(index) + k) % n];
      const int64_t t0 = now_ns();
      Tensor logits;
      {
        Span s("fig3.forward." + rep.label,
               index * static_cast<int64_t>(n) + static_cast<int64_t>(k));
        logits = (*rep.model)(batch_.images);
      }
      r.add(phase + ".fwd_ms." + rep.label, seconds_between(t0, now_ns()) * 1e3);
      bool ok = bit_equal(logits, rep.reference);
      if (rep.label == "native") ok = ok && all_finite(logits);
      r.check(ok, "fig3: " + rep.label + " logits differ from the first forward");
    }
    return static_cast<double>(n);
  }

  void probes(Results& r) override {
    spans_.reset();
    const int64_t numel = fc1_out_.numel();
    r.set("probe.fc1_numel", static_cast<double>(numel));
    int64_t op_id = 0;
    for (const FormatCase& f : kFig3Formats) {
      if (f.spec[0] == '\0') continue;
      auto format = fmt::make_format(f.spec);
      for (int i = 0; i < 40; ++i) {
        Tensor t = deep_copy(fc1_out_);
        Span s(std::string("formats.quantize_tensor_inplace.") + f.label, op_id++);
        format->quantize_tensor_inplace(t);
      }
    }
    // Scalar encode/decode round trip over the first 4096 fc1 values.
    auto fp16 = fmt::make_format("fp_e5m10");
    const int64_t scalars = std::min<int64_t>(4096, numel);
    r.set("probe.scalar_count", static_cast<double>(scalars));
    float sink = 0.0f;
    for (int i = 0; i < 20; ++i) {
      Span s("formats.scalar_roundtrip.fp16", op_id++);
      for (int64_t j = 0; j < scalars; ++j) {
        sink += fp16->format_to_real(fp16->real_to_format(fc1_out_.cdata()[j]));
      }
    }
    r.set("probe.scalar_sink", static_cast<double>(sink));  // keeps the loop live
    // Metadata corruption + re-decode, the metadata-site trial path.
    auto bfp = fmt::make_format("bfp_e8m7_b16");
    Tensor t = deep_copy(fc1_out_);
    bfp->quantize_tensor_inplace(t);
    const fmt::MetadataField field = bfp->metadata_fields().front();
    for (int i = 0; i < 40; ++i) {
      const int64_t reg = static_cast<int64_t>(
          derive(o_.seed, kTagProbe, static_cast<uint64_t>(i)) %
          static_cast<uint64_t>(field.count));
      fmt::BitString bits = bfp->read_metadata(field.name, reg);
      bits.flip_bit(0);
      Span s("formats.metadata_redecode.bfp", op_id++);
      bfp->write_metadata(field.name, reg, bits);
      Tensor decoded = bfp->decode_last_tensor();
      (void)decoded;
    }
  }

 private:
  struct Replica {
    std::string label;
    std::unique_ptr<nn::Module> model;
    std::unique_ptr<core::Emulator> emu;  ///< declared after model: detaches first
    Tensor reference;
  };

  Options o_;
  data::Batch batch_;
  std::vector<Replica> reps_;
  Tensor fc1_out_;
  std::unique_ptr<ModuleSpans> spans_;
};

// =========================================================================
// campaign_long
// =========================================================================

constexpr int64_t kLongSamples = 32;
constexpr int64_t kLongInjections = 16;  // per layer: 256 trials a campaign
constexpr int kSpotChecks = 4;           // per phase

class CampaignLong final : public Workload {
 public:
  explicit CampaignLong(const Options& o) : o_(o) {}

  void setup(Results&) override {
    auto d = make_data();
    model_ = load_model("tiny_resnet", *d, o_.cache_dir).model;
    const int64_t n = d->test().size();
    const int64_t offset = static_cast<int64_t>(
        derive(o_.seed, kTagBatch) % static_cast<uint64_t>(n - kLongSamples + 1));
    batch_ = data::take(d->test(), offset, kLongSamples);
    cfg_.format_spec = "fp_e5m10";
    cfg_.site = core::InjectionSite::kActivationValue;
    cfg_.model = core::ErrorModel::kBitFlip;
    cfg_.injections_per_layer = kLongInjections;
    cfg_.use_prefix_cache = true;
    cfg_.make_replica = [] { return models::make_model("tiny_resnet", kDataCfg, 0); };
    ropts_.model_name = "tiny_resnet";
    ropts_.eval_samples = kLongSamples;
  }

  double op(Results& r, const std::string& phase, int64_t index) override {
    core::CampaignConfig cfg = cfg_;
    cfg.seed = derive(o_.seed, kTagCampaign, static_cast<uint64_t>(index));
    core::CampaignProgress prog;
    {
      Span s("core.campaign.run_campaign_trials", index);
      prog = core::run_campaign_trials(*model_, batch_, cfg, ropts_);
    }
    bool ok = prog.complete();
    if (ok) {
      Span s("core.campaign.finalize_campaign", index);
      ok = core::campaign_digest(core::finalize_campaign(prog)) != 0;
    }
    r.check(ok, "campaign_long: campaign " + std::to_string(index) + " incomplete");
    r.add(phase + ".trials", static_cast<double>(prog.completed_trials()));
    const double trials = static_cast<double>(prog.completed_trials());
    runs_.push_back({index, cfg.seed, std::move(prog)});
    return trials;
  }

  /// Re-run seeded trial indices alone, without the prefix cache, over a
  /// one-trial lease: each must match the phase's campaign outcome for
  /// outcome. Spot check j looks at campaign j mod (campaigns run).
  void verify(Results& r, const std::string&) override {
    for (int j = 0; j < kSpotChecks && !runs_.empty(); ++j) {
      const Run& run = runs_[static_cast<size_t>(j) % runs_.size()];
      const int64_t g = static_cast<int64_t>(
          derive(o_.seed, kTagSpot, static_cast<uint64_t>(j)) %
          static_cast<uint64_t>(run.prog.total_trials()));
      core::CampaignConfig cfg = cfg_;
      cfg.seed = run.seed;
      cfg.use_prefix_cache = false;
      core::CampaignRunOptions ro = ropts_;
      ro.lease_lo = g;
      ro.lease_hi = g + 1;
      const core::CampaignProgress one =
          core::run_campaign_trials(*model_, batch_, cfg, ro);
      const size_t layer = static_cast<size_t>(g / kLongInjections);
      const size_t t = static_cast<size_t>(g % kLongInjections);
      bool ok = one.completed_trials() == 1 && layer < one.layers.size() &&
                one.layers[layer].done[t] == 1;
      if (ok) {
        const core::FaultOutcome& a = run.prog.layers[layer].outcomes[t];
        const core::FaultOutcome& b = one.layers[layer].outcomes[t];
        ok = a.mismatched_samples == b.mismatched_samples &&
             std::memcmp(&a.mismatch_rate, &b.mismatch_rate, sizeof(float)) == 0 &&
             std::memcmp(&a.delta_loss, &b.delta_loss, sizeof(float)) == 0 &&
             std::memcmp(&a.max_delta_loss, &b.max_delta_loss, sizeof(float)) == 0 &&
             a.sdc == b.sdc;
      }
      r.check(ok, "campaign_long: trial " + std::to_string(g) + " of campaign " +
                      std::to_string(run.index) + " differs when re-run alone");
    }
    runs_.clear();
  }

  void probes(Results&) override {
    for (int i = 0; i < 5; ++i) make_replica("tiny_resnet", *model_);
    // Per-layer self time of a golden (fault-free, native) forward.
    {
      ModuleSpans spans(*model_);
      for (int i = 0; i < 10; ++i) {
        Span s("campaign_long.golden_forward", i);
        (*model_)(batch_.images);
      }
    }
    // Per-campaign fixed cost: the whole set-up over an empty lease window.
    for (int i = 0; i < 3; ++i) {
      core::CampaignConfig cfg = cfg_;
      cfg.seed = derive(o_.seed, kTagCampaign, 1000 + static_cast<uint64_t>(i));
      core::CampaignRunOptions ro = ropts_;
      ro.lease_lo = 0;
      ro.lease_hi = 0;
      Span s("core.campaign.fixed.campaign_long", i);
      core::run_campaign_trials(*model_, batch_, cfg, ro);
    }
    probe_arm(*model_, "fp_e5m10", core::InjectionSite::kActivationValue,
              "value", derive(o_.seed, kTagProbe, 1));
  }

 private:
  struct Run {
    int64_t index = 0;
    uint64_t seed = 0;
    core::CampaignProgress prog;
  };

  Options o_;
  std::unique_ptr<nn::Module> model_;
  data::Batch batch_;
  core::CampaignConfig cfg_;
  core::CampaignRunOptions ropts_;
  std::vector<Run> runs_;
};

// =========================================================================
// served_mix
// =========================================================================

constexpr int64_t kServedInjections = 8;  // per layer
constexpr int64_t kServedSamples = 16;
constexpr int kServedSeedsPerSite = 2;

struct ServedSite {
  const char* label;
  const char* format;
  core::InjectionSite site;
};
const ServedSite kServedSites[] = {
    {"value", "fp_e5m10", core::InjectionSite::kActivationValue},
    {"weight", "int8", core::InjectionSite::kWeightValue},
    {"metadata", "bfp_e8m7_b16", core::InjectionSite::kMetadata},
};

/// Counts the lines a RunLog writes: the served trial-row stream.
class LineCounter : public std::streambuf {
 public:
  int64_t lines = 0;

 protected:
  int overflow(int ch) override {
    if (ch == '\n') ++lines;
    return ch == traits_type::eof() ? 0 : ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') ++lines;
    }
    return n;
  }
};

class ServedMix final : public Workload {
 public:
  explicit ServedMix(const Options& o) : o_(o) {}
  ~ServedMix() override {
    if (server_ == nullptr) return;
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  void setup(Results&) override {
    for (int s = 0; s < kServedSeedsPerSite; ++s) {
      for (const ServedSite& site : kServedSites) {
        Spec spec;
        spec.label = site.label;
        spec.msg.model_name = "simple_cnn";
        spec.msg.samples = kServedSamples;
        spec.msg.format_spec = site.format;
        spec.msg.site = static_cast<uint8_t>(site.site);
        spec.msg.injections_per_layer = kServedInjections;
        spec.msg.seed = derive(o_.seed, kTagSpec, specs_.size());
        specs_.push_back(spec);
      }
    }
    net::ServeOptions so;
    so.port = 0;
    so.cache_dir = o_.cache_dir;
    so.checkpoint_dir = o_.work_dir;
    Span s("net.Server");
    server_ = std::make_unique<net::Server>(so, nullptr);
    if (!server_->ok()) throw std::runtime_error("served_mix: " + server_->last_error());
    net::Server* srv = server_.get();
    thread_ = std::thread([srv] { srv->run(); });
  }

  /// Offline digest of every spec in the rotation, computed the way the
  /// server prepares a campaign: the served digest must equal it.
  void reference(Results&) override {
    for (Spec& spec : specs_) {
      net::PreparedCampaign prep;
      {
        Span s("net.prepare_campaign." + spec.label);
        prep = net::prepare_campaign(spec.msg, o_.cache_dir);
      }
      core::CampaignRunOptions ro;
      ro.model_name = spec.msg.model_name;
      ro.eval_samples = spec.msg.samples;
      core::CampaignProgress prog;
      {
        Span s("core.campaign.run_campaign_trials.offline");
        prog = core::run_campaign_trials(*prep.trained.model, prep.batch, prep.cfg, ro);
      }
      {
        Span s("core.campaign.finalize_campaign");
        spec.digest = core::campaign_digest(core::finalize_campaign(prog));
      }
      spec.trials = prog.completed_trials();
      {
        ro.lease_lo = 0;
        ro.lease_hi = 0;
        Span s("core.campaign.fixed.served_mix");
        core::run_campaign_trials(*prep.trained.model, prep.batch, prep.cfg, ro);
      }
    }
  }

  double op(Results& r, const std::string& phase, int64_t index) override {
    const Spec& spec = specs_[static_cast<size_t>(index) % specs_.size()];
    net::SubmitOptions so;
    so.port = server_->port();
    so.spec = spec.msg;
    so.client_name = "perfbench";
    LineCounter rows;
    std::ostream row_stream(&rows);
    ge::obs::RunLog log(row_stream);
    std::ostringstream out, err;
    int rc = 0;
    {
      Span s("net.run_submit." + spec.label, index);
      rc = net::run_submit(so, &log, out, err);
    }
    const std::string text = out.str();
    const std::string key = "campaign digest: 0x";
    const size_t at = text.find(key);
    uint64_t digest = 0;
    if (at != std::string::npos) {
      digest = std::strtoull(text.c_str() + at + key.size(), nullptr, 16);
    }
    r.check(rc == 0 && digest == spec.digest,
            "served_mix: campaign " + std::to_string(index) + " (" + spec.label +
                ") digest differs from offline " + err.str());
    r.add(phase + ".runlog_rows", static_cast<double>(rows.lines));
    return static_cast<double>(spec.trials);
  }

  void verify(Results& r, const std::string& phase) override {
    // The executor's own lease count, from the server's /status object.
    r.notes[phase + ".status"] = ge::obs::render_status_json();
  }

  void probes(Results&) override {
    auto d = make_data();
    auto m = load_model("simple_cnn", *d, o_.cache_dir).model;
    for (int i = 0; i < 5; ++i) make_replica("simple_cnn", *m);
    probe_arm(*m, "int8", core::InjectionSite::kWeightValue, "weight",
              derive(o_.seed, kTagProbe, 2));
    probe_arm(*m, "bfp_e8m7_b16", core::InjectionSite::kMetadata, "metadata",
              derive(o_.seed, kTagProbe, 3));
  }

 private:
  struct Spec {
    std::string label;
    net::CampaignSpecMsg msg;
    uint64_t digest = 0;
    int64_t trials = 0;
  };

  Options o_;
  std::vector<Spec> specs_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

}  // namespace

std::unique_ptr<Workload> make_fig3_forward(const Options& o) {
  return std::make_unique<Fig3Forward>(o);
}
std::unique_ptr<Workload> make_campaign_long(const Options& o) {
  return std::make_unique<CampaignLong>(o);
}
std::unique_ptr<Workload> make_served_mix(const Options& o) {
  return std::make_unique<ServedMix>(o);
}

void common_probes(Results& r, uint64_t seed) {
  // tiny_deit shapes: qkv projection (batch 32 x 17 tokens, dim 48 -> 144),
  // and per-head QK^T (17 tokens x head dim 12) over 32 x 4 heads.
  ge::Rng rng(derive(seed, kTagProbe, 9));
  const Tensor x = rng.normal_tensor({544, 48});
  const Tensor w = rng.normal_tensor({48, 144});
  r.set("probe.matmul_flops", 2.0 * 544 * 48 * 144);
  for (int i = 0; i < 100; ++i) {
    Span s("tensor.matmul", i);
    Tensor y = ge::ops::matmul(x, w);
  }
  const Tensor q = rng.normal_tensor({17, 12});
  const Tensor k = rng.normal_tensor({17, 12});
  constexpr int kHeads = 128;
  r.set("probe.matmul_bt_flops", 2.0 * 17 * 17 * 12 * kHeads);
  for (int i = 0; i < 100; ++i) {
    Span s("tensor.matmul_bt", i);
    for (int h = 0; h < kHeads; ++h) {
      Tensor y = ge::ops::matmul_bt(q, k);
    }
  }
  const Tensor scores = rng.normal_tensor({kHeads, 17, 17});
  r.set("probe.softmax_numel", static_cast<double>(scores.numel()));
  for (int i = 0; i < 100; ++i) {
    Span s("tensor.softmax_lastdim", i);
    Tensor y = ge::ops::softmax_lastdim(scores);
  }
  const int threads = ge::parallel::num_threads();
  constexpr int kCalls = 100;
  r.set("probe.parallel_for_calls", kCalls);
  for (int i = 0; i < 50; ++i) {
    Span s("parallel.parallel_for.empty", i);
    for (int c = 0; c < kCalls; ++c) {
      ge::parallel::parallel_for(0, threads, 1, [](int64_t, int64_t) {});
    }
  }
}

void prepare_models(const std::string& cache_dir) {
  data::SyntheticVision d{kDataCfg};
  for (const char* name : {"tiny_deit", "tiny_resnet", "simple_cnn"}) {
    models::ensure_trained(name, d, cache_dir);
  }
}

}  // namespace perfbench
