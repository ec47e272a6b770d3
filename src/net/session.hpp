// ge::net session plumbing shared by the server and the clients:
//
//  - FrameChannel: one connection with a serialized writer. Several
//    threads write frames to the same socket (the executor streaming
//    trial rows while worker-forwarders splice in theirs; a worker's
//    campaign thread racing its heartbeat thread), so sends take a mutex.
//    Reads don't: every channel has exactly one reader thread.
//  - LineFrameStream: an ostream whose every '\n'-terminated line leaves
//    as one kLogRow frame. Wrapping it in obs::RunLog(std::ostream&)
//    turns a campaign engine's report stream into live row streaming —
//    the rows on the wire are the exact bytes an offline --report run
//    would have written.
//  - The campaign-spec path shared by `campaign`, `submit`, `serve` and
//    `worker`: flag-name tables, one validator, prepare_campaign
//    (CampaignSpecMsg -> ready-to-run model, batch and CampaignConfig) and
//    one summary renderer. The spec's trace context rides along untouched:
//    callers that want their spans in the submit client's trace install
//    an obs::TraceContextScope from spec.trace_id/parent_span_id first
//    (telemetry only — results are bitwise independent of tracing).
//    Every process prepares against its own cache dir; deterministic
//    synthetic training makes the weights bitwise identical across
//    processes, and the golden-digest check in fold_campaign_progress
//    turns any divergence into a diagnosed error instead of silently
//    mixed statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/dataloader.hpp"
#include "models/model_factory.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ge::net {

/// One protocol connection: single reader thread, any number of writers.
class FrameChannel {
 public:
  FrameChannel(Socket sock, std::string context)
      : sock_(std::move(sock)), context_(std::move(context)) {}

  /// Thread-safe frame write; throws NetError when the peer is gone.
  void send(FrameType type, std::vector<uint8_t> payload);
  /// Single-reader frame read; nullopt on clean EOF.
  std::optional<Frame> recv();
  /// As recv(), but gives up after `timeout_ms` with *timed_out = true —
  /// the polling form server session threads use so a blocked read can
  /// never outlive a shutdown request.
  std::optional<Frame> recv_wait(int timeout_ms, bool* timed_out);

  const std::string& context() const noexcept { return context_; }

 private:
  std::mutex send_mu_;
  Socket sock_;
  std::string context_;
};

/// std::streambuf turning each completed line into a kLogRow frame.
class LineFrameBuf : public std::streambuf {
 public:
  explicit LineFrameBuf(FrameChannel& chan) : chan_(&chan) {}

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void emit_line();

  FrameChannel* chan_;
  std::string line_;
};

/// The ostream face of LineFrameBuf (what obs::RunLog wraps).
class LineFrameStream : public std::ostream {
 public:
  explicit LineFrameStream(FrameChannel& chan)
      : std::ostream(&buf_), buf_(chan) {}

 private:
  LineFrameBuf buf_;
};

/// A flag spelling of one campaign-spec enum value. These tables are the
/// only place a spelling exists: the CLI parses `--site`, `--error-model`
/// and `--inject-scope` through them and render_campaign_summary prints
/// through them.
template <typename Enum>
struct FlagName {
  const char* name;
  Enum value;
};

inline constexpr FlagName<core::InjectionSite> kSiteNames[] = {
    {"value", core::InjectionSite::kActivationValue},
    {"weight", core::InjectionSite::kWeightValue},
    {"metadata", core::InjectionSite::kMetadata},
};
inline constexpr FlagName<core::ErrorModel> kErrorModelNames[] = {
    {"flip", core::ErrorModel::kBitFlip},
    {"sa0", core::ErrorModel::kStuckAt0},
    {"sa1", core::ErrorModel::kStuckAt1},
    {"ber", core::ErrorModel::kBerUniform},
    {"burst", core::ErrorModel::kBurst},
};
/// Spatial scopes own the error-model slot ("layer" selects none of these).
inline constexpr FlagName<core::ErrorModel> kScopeNames[] = {
    {"channel", core::ErrorModel::kChannel},
    {"row", core::ErrorModel::kRowBurst},
};

/// The label a campaign's output shows for its site and error model: the
/// flag spelling, or core::to_string for the scope-selected models.
const char* site_label(core::InjectionSite site);
const char* error_model_label(core::ErrorModel model);

/// The one campaign-spec validator: empty when `spec` can run, otherwise
/// what is wrong with it, phrased in the CLI's flag names. The CLI raises
/// it as a usage error before training anything; prepare_campaign raises
/// it as a NetError (a lying client is answered, not trusted).
std::string campaign_spec_error(const CampaignSpecMsg& spec);

/// A campaign reconstructed from its spec: trained model, evaluation batch,
/// and the CampaignConfig (with replica factory) ready for a
/// core::CampaignEngine.
struct PreparedCampaign {
  models::TrainedModel trained;
  data::Batch batch;
  core::CampaignConfig cfg;
};

/// Validate `spec` and build its campaign. `goldeneye campaign`, the
/// server's executor and every worker all prepare through here, against
/// their own cache dir. Throws NetError on an invalid spec or a model that
/// cannot be prepared.
PreparedCampaign prepare_campaign(const CampaignSpecMsg& spec,
                                  const std::string& cache_dir);

/// A finished campaign's stdout report (header, layer table, accuracies,
/// digest line): what `goldeneye campaign` prints, and the kDone summary
/// the submit client prints verbatim.
std::string render_campaign_summary(const CampaignSpecMsg& spec,
                                    const core::CampaignResult& result);

}  // namespace ge::net
