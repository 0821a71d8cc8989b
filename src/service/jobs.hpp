// Tier-aware job adapters: subsystem campaigns as CampaignService bodies.
//
// Each make_*_job factory wraps one subsystem entry point -- HLS design
// space exploration, Monte-Carlo fault campaigns, IMC crossbar MVM,
// approximate convolution, the DNA archival pipeline, and the SCF
// transformer estimate -- as a type-erased service job body. The adapters
// own the glue the service contract requires:
//
//   Result plumbing -- bodies return nothing; producers pass a shared_ptr
//     result slot the body fills, and read it back after poll() reports a
//     terminal state. (A slot outlives both the caller's stack frame and
//     the service, so late-draining cancelled bodies never write freed
//     memory.)
//   Degradation -- bodies read JobContext::tier() and map it through
//     service/degrade.hpp (sampled trials, strided DSE grids, fewer DNA
//     re-read passes). At kFull every adapter is bit-identical to calling
//     the subsystem directly.
//   Heartbeats + resumable checkpoints -- long campaigns run in bounded
//     batches (unit_budget / trial_budget / batch_budget) against a
//     checkpoint file under the service scratch dir, heartbeating and
//     note_checkpoint()-ing between batches. That single loop shape is what
//     makes the watchdog story work end to end: a kill at any batch
//     boundary leaves a durable snapshot the journal points at, and
//     resubmitting the same job resumes instead of restarting.
//   Cancellation -- the JobContext token (deadline folded in) is threaded
//     into each subsystem's own CancelToken slot, so bodies drain at the
//     subsystem's native poll points and return flagged partials.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/fault.hpp"
#include "core/result_store.hpp"
#include "core/retry.hpp"
#include "core/service.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "hls/dse.hpp"
#include "imc/crossbar.hpp"
#include "scf/fabric.hpp"
#include "scf/model.hpp"
#include "scf/transformer.hpp"

namespace icsc::service {

using JobBody = std::function<void(core::JobContext&)>;

// ---------------------------------------------------------------------------
// HLS design-space exploration.

struct DseJobOptions {
  hls::Kernel kernel{"empty"};  // callers replace with their real kernel
  hls::DseConfig config;
  /// Design points evaluated per heartbeat/checkpoint round.
  std::size_t batch_units = 16;
  /// Root directory for the durable cross-run result store
  /// (core/result_store.hpp). When non-empty the body opens (or reuses --
  /// handles are shared process-wide per directory) a per-tenant store at
  /// `store_root + "/" + ctx.tenant()`, so a repeat submission of the same
  /// campaign -- same tenant, any job id, across service restarts -- is
  /// served from disk without re-running the sweep. Empty disables the
  /// durable tier; an explicit config.result_store wins over this.
  std::string store_root;
  /// Test hook: after this many completed units the body stops
  /// heartbeating and spins until cancelled -- a deterministic "stuck job"
  /// for the watchdog tests (0 disables).
  std::size_t stall_after_units = 0;
};

/// Opens (or reuses) the process-wide shared ResultStore handle for `dir`.
/// One handle per directory: the store's own flock serialises cross-process
/// access, and sharing the in-process handle keeps its index/counters
/// coherent across jobs. Creates the directory chain as needed.
std::shared_ptr<core::ResultStore> open_shared_store(const std::string& dir);

/// Exhaustive DSE as a service job. kReduced/kMinimal tiers stride the
/// sweep grid (degrade.hpp); progress checkpoints to
/// ctx.checkpoint_path("dse.snap") when the service has a scratch dir.
JobBody make_dse_job(DseJobOptions options,
                     std::shared_ptr<hls::DseResult> out);

// ---------------------------------------------------------------------------
// Monte-Carlo fault campaign (any subsystem's trial function).

struct FaultCampaignJobOptions {
  std::uint64_t seed = 1;
  /// Trial budget at every tier; degraded tiers stop early once the KPI
  /// confidence interval converges (TierProfile::campaign_early_stop).
  std::size_t trials = 32;
  /// Trials folded per heartbeat/checkpoint round.
  std::size_t batch_trials = 4;
  std::function<core::TrialResult(std::uint64_t, std::size_t)> trial;
};

JobBody make_fault_campaign_job(FaultCampaignJobOptions options,
                                std::shared_ptr<core::CampaignRunOutcome> out);

// ---------------------------------------------------------------------------
// DNA archival pipeline.

struct DnaJobOptions {
  hetero::dna::ArchivalSimParams params;
  /// Strands per journal record (heartbeat granularity).
  std::size_t journal_batch = 64;
  /// Sequencing batches per heartbeat round.
  std::size_t batch_budget = 4;
};

/// Archival sim as a service job; degraded tiers cap re-read passes.
/// Sequencing progress journals to ctx.checkpoint_path("dna.journal").
JobBody make_dna_job(DnaJobOptions options,
                     std::shared_ptr<hetero::dna::ArchivalSimResult> out);

// ---------------------------------------------------------------------------
// Small interactive jobs: IMC crossbar MVM, approximate conv, SCF estimate.

struct MvmJobOptions {
  std::size_t dim = 24;
  std::uint64_t seed = 1;
  /// Full-tier RMSE trial count (degraded tiers sample fewer).
  int trials = 4;
  imc::CrossbarConfig config;
};

/// Programs a random crossbar and measures MVM RMSE against the exact
/// product; `out` receives the RMSE.
JobBody make_mvm_job(MvmJobOptions options, std::shared_ptr<double> out);

// ---------------------------------------------------------------------------
// Coalesced same-shape MVM batching.

struct MvmBatchOptions {
  std::size_t dim = 8;
  std::uint64_t seed = 1;
  imc::CrossbarConfig config;
  std::string tenant = "default";
  core::PriorityClass priority = core::PriorityClass::kBatch;
  /// Per-MVM cost estimate handed to the service (drives DRR debit and the
  /// doomed-shed / batching-window deadline checks).
  double cost_estimate_seconds = 0.0;
};

/// Client for coalesced small MVMs against one shared crossbar. The client
/// programs a crossbar once (random weights from `seed`, like make_mvm_job)
/// and hands out coalescible JobRequests: every request carries the
/// client's coalesce_key, its body gathers the input and result slot into
/// JobContext::batch_state(), and the *last* member of each coalesced
/// group issues a single Crossbar::matvec_raw_batch over all gathered
/// inputs and scatters the per-member outputs. Because the batch
/// serialises vectors in member order over the same stateful analog read
/// stream, the results are bit-identical to submitting the same inputs
/// solo in the same order against an identically-programmed crossbar.
///
/// The coalesce key is unique per client instance: two clients with the
/// same shape own different crossbars (different device state and RNG
/// stream), so batching across them would scatter one client's inputs
/// through the other's array. Submit through one client to batch.
///
/// Request bodies share ownership of the crossbar, so the client may be
/// destroyed while jobs are still queued or draining. A mutex serialises
/// device passes across dispatcher threads (distinct groups of the same
/// client can finish concurrently).
class MvmBatchClient {
 public:
  explicit MvmBatchClient(MvmBatchOptions options);

  /// Shape/config fingerprint the service groups requests on.
  const std::string& coalesce_key() const { return key_; }

  /// One MVM as a coalescible request. `x` must hold dim elements; `out`
  /// receives the raw bitline sums (dim doubles) once poll() reports
  /// kDone. If the scatter pass itself throws (shape mismatch -- impossible
  /// for requests minted by one client), only the last member fails.
  core::JobRequest make_request(std::vector<float> x,
                                std::shared_ptr<std::vector<double>> out);

  /// Device passes issued so far (one per coalesced group or solo run) --
  /// the denominator of the amortisation story.
  std::uint64_t device_passes() const;

  /// The shared crossbar (callers read energy/health accounting off it).
  imc::Crossbar& crossbar() { return *crossbar_; }

 private:
  struct Shared;  // crossbar + device mutex + pass counter
  MvmBatchOptions options_;
  std::string key_;
  std::shared_ptr<Shared> shared_;
  std::shared_ptr<imc::Crossbar> crossbar_;
};

// ---------------------------------------------------------------------------
// Coalesced (deduplicated) single design-point evaluations.

struct DseEvalOptions {
  hls::Kernel kernel{"empty"};
  int unroll = 1;
  hls::ResourceBudget budget;
  hls::DseConfig config;
  std::string tenant = "default";
  core::PriorityClass priority = core::PriorityClass::kBatch;
  double cost_estimate_seconds = 0.0;
};

/// One memoized hls::evaluate_design call as a coalescible request. The
/// coalesce key fingerprints (kernel name/size, unroll, budget, device,
/// iterations, pipelined), so a coalesced group holds *identical*
/// evaluations: the first member evaluates once and every member's slot
/// receives the same DesignPoint -- N queued duplicates cost one pipeline
/// pass. Callers must keep distinct kernels under distinct names (the key
/// cannot hash the op graph cheaply).
core::JobRequest make_dse_eval_request(DseEvalOptions options,
                                       std::shared_ptr<hls::DesignPoint> out);

struct ConvJobOptions {
  std::size_t out_channels = 4;
  std::size_t in_channels = 4;
  std::size_t kernel = 3;
  std::size_t height = 32;
  std::size_t width = 32;
  std::uint64_t seed = 1;
  /// Full-tier forward passes (degraded tiers run fewer).
  int repeats = 2;
};

/// Repeated quantized conv forward passes; `out` receives the final
/// feature map's element sum (a cheap order-independent checksum).
JobBody make_conv_job(ConvJobOptions options, std::shared_ptr<double> out);

struct ScfJobOptions {
  scf::TransformerConfig model;
  /// Full-tier encoder depth (degraded tiers estimate a shallower model).
  int layers = 2;
  scf::FabricConfig fabric;
};

JobBody make_scf_job(ScfJobOptions options,
                     std::shared_ptr<scf::ModelInferenceEstimate> out);

// ---------------------------------------------------------------------------
// Resubmission under overload.

/// Outcome of submit_with_backoff: the final SubmitOutcome (admitted, or
/// the last rejection) plus the retry loop's accounting.
struct ResubmitResult {
  core::SubmitOutcome outcome;
  core::RetryStats retry;
};

/// Submits `request`, retrying rejections on the policy's delay schedule
/// (core/retry.hpp) -- the intended pairing is decorrelated jitter plus a
/// max-elapsed cap, so colliding clients spread out instead of retrying in
/// lockstep, and give up in bounded time. Each sleep honours the service's
/// retry-after hint when it exceeds the scheduled delay. `sleep` defaults
/// to a real std::this_thread sleep; tests inject a recorder to stay
/// instant.
ResubmitResult submit_with_backoff(
    core::CampaignService& service, core::JobRequest request,
    const core::RetryPolicy& policy,
    std::function<void(double)> sleep = {});

}  // namespace icsc::service
