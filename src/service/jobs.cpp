#include "service/jobs.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "approx/conv.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "service/degrade.hpp"

namespace icsc::service {

namespace {

/// Spin (cheaply) until the job is cancelled: the deterministic "stuck
/// body" the watchdog tests point at. Never heartbeats.
void stall_until_cancelled(core::JobContext& ctx) {
  while (!ctx.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

std::shared_ptr<core::ResultStore> open_shared_store(const std::string& dir) {
  // Process-wide registry of live store handles, keyed by directory. A
  // weak_ptr entry lets an idle store close (releasing its lock-file fd)
  // while concurrent jobs on the same tenant share one handle.
  static std::mutex registry_mutex;
  static std::map<std::string, std::weak_ptr<core::ResultStore>> registry;
  const std::lock_guard<std::mutex> lock(registry_mutex);
  auto& slot = registry[dir];
  if (auto store = slot.lock()) return store;
  core::ResultStoreConfig config;
  config.dir = dir;
  auto store = std::make_shared<core::ResultStore>(config);
  slot = store;
  return store;
}

JobBody make_dse_job(DseJobOptions options,
                     std::shared_ptr<hls::DseResult> out) {
  return [options = std::move(options),
          out = std::move(out)](core::JobContext& ctx) {
    hls::DseConfig config = options.config;
    const TierProfile profile = tier_profile(ctx.tier());
    config.space = strided_space(config.space, profile.dse_grid_stride);
    config.cancel = ctx.cancel();
    if (config.checkpoint_path.empty()) {
      config.checkpoint_path = ctx.checkpoint_path("dse.snap");
    }
    if (!config.result_store && !options.store_root.empty()) {
      // Per-tenant durable tier: repeat submissions of the same campaign
      // -- any job id, across service restarts -- are served from disk.
      // Store open failures degrade to a normal (store-less) run rather
      // than failing the job.
      try {
        config.result_store =
            open_shared_store(options.store_root + "/" + ctx.tenant());
      } catch (const core::Error&) {
        config.result_store = nullptr;
      }
    }
    ctx.heartbeat();
    hls::DseResult result;
    if (config.checkpoint_path.empty()) {
      // No durable state available: run open-loop in one shot (still
      // cancellable at the sweep's own poll points).
      result = hls::dse_exhaustive(options.kernel, config);
    } else {
      // Bounded batches against the snapshot: each round resumes from the
      // last durable prefix and folds at most batch_units more points, so
      // every round boundary is a heartbeat and a resumable checkpoint.
      const std::size_t batch = options.batch_units ? options.batch_units : 16;
      std::size_t previous_total = 0;
      for (;;) {
        config.unit_budget = batch;
        result = hls::dse_exhaustive(options.kernel, config);
        ctx.heartbeat();
        ctx.note_checkpoint(config.checkpoint_path);
        if (options.stall_after_units > 0 &&
            result.evaluations >= options.stall_after_units) {
          stall_until_cancelled(ctx);
          break;
        }
        if (result.completed || ctx.cancelled()) break;
        if (result.evaluations <= previous_total) break;  // no forward progress
        previous_total = result.evaluations;
      }
    }
    if (out) *out = std::move(result);
  };
}

JobBody make_fault_campaign_job(
    FaultCampaignJobOptions options,
    std::shared_ptr<core::CampaignRunOutcome> out) {
  return [options = std::move(options),
          out = std::move(out)](core::JobContext& ctx) {
    const core::FaultCampaign campaign(options.seed, options.trials);
    core::CampaignRunOptions run;
    run.cancel = ctx.cancel();
    run.early_stop = tier_profile(ctx.tier()).campaign_early_stop;
    run.checkpoint_path = ctx.checkpoint_path("campaign.snap");
    ctx.heartbeat();
    core::CampaignRunOutcome outcome;
    if (run.checkpoint_path.empty()) {
      outcome = campaign.run(options.trial, run);
    } else {
      const std::size_t batch =
          options.batch_trials ? options.batch_trials : 4;
      std::size_t previous_total = 0;
      for (;;) {
        run.trial_budget = batch;
        outcome = campaign.run(options.trial, run);
        ctx.heartbeat();
        ctx.note_checkpoint(run.checkpoint_path);
        if (outcome.completed || ctx.cancelled()) break;
        if (outcome.results.size() <= previous_total) break;
        previous_total = outcome.results.size();
      }
    }
    if (out) *out = std::move(outcome);
  };
}

JobBody make_dna_job(DnaJobOptions options,
                     std::shared_ptr<hetero::dna::ArchivalSimResult> out) {
  return [options = std::move(options),
          out = std::move(out)](core::JobContext& ctx) {
    hetero::dna::ArchivalSimParams params = options.params;
    const TierProfile profile = tier_profile(ctx.tier());
    params.reread.max_passes =
        std::min(params.reread.max_passes, profile.dna_max_passes);
    hetero::dna::ArchivalRunOptions run;
    run.cancel = ctx.cancel();
    run.journal_path = ctx.checkpoint_path("dna.journal");
    run.journal_batch = options.journal_batch;
    ctx.heartbeat();
    hetero::dna::ArchivalSimResult result;
    if (run.journal_path.empty()) {
      result = hetero::dna::run_archival_sim(params, run);
    } else {
      const std::size_t batch =
          options.batch_budget ? options.batch_budget : 4;
      std::size_t previous_resumed = 0;
      bool first = true;
      for (;;) {
        run.batch_budget = batch;
        result = hetero::dna::run_archival_sim(params, run);
        ctx.heartbeat();
        ctx.note_checkpoint(run.journal_path);
        if (result.completed || ctx.cancelled()) break;
        // resumed_batches counts records replayed this invocation; it must
        // grow round over round while sequencing advances.
        if (!first && result.resumed_batches <= previous_resumed) break;
        previous_resumed = result.resumed_batches;
        first = false;
      }
    }
    if (out) *out = result;
  };
}

JobBody make_mvm_job(MvmJobOptions options, std::shared_ptr<double> out) {
  return [options, out = std::move(out)](core::JobContext& ctx) {
    ctx.heartbeat();
    if (ctx.cancelled()) return;
    core::Rng rng(options.seed);
    core::TensorF weights({options.dim, options.dim});
    for (auto& v : weights.data()) {
      v = static_cast<float>(rng.normal(0.0, 0.5));
    }
    imc::CrossbarConfig config = options.config;
    config.seed = options.seed;
    const int trials = static_cast<int>(scaled_trials(
        static_cast<std::size_t>(std::max(1, options.trials)), ctx.tier()));
    const double rmse = imc::crossbar_mvm_rmse(weights, config, trials, 1.0,
                                               options.seed ^ 0x5EED);
    ctx.heartbeat();
    if (out) *out = rmse;
  };
}

// ---------------------------------------------------------------------------
// Coalesced same-shape MVM batching.

namespace {

/// Per-group gather state living in JobContext::batch_state(): inputs
/// packed row-major plus each member's result slot, in member order.
struct MvmGather {
  std::vector<float> inputs;
  std::vector<std::shared_ptr<std::vector<double>>> slots;
};

}  // namespace

struct MvmBatchClient::Shared {
  Shared(const core::TensorF& weights, const imc::CrossbarConfig& config)
      : crossbar(weights, config) {}
  imc::Crossbar crossbar;
  /// Serialises device passes: distinct groups minted by one client can
  /// reach their scatter pass on different dispatcher threads.
  std::mutex device_mutex;
  std::atomic<std::uint64_t> passes{0};
};

MvmBatchClient::MvmBatchClient(MvmBatchOptions options)
    : options_(std::move(options)) {
  if (options_.dim == 0) {
    throw core::Error("service::MvmBatchClient", "dim must be >= 1");
  }
  core::Rng rng(options_.seed);
  core::TensorF weights({options_.dim, options_.dim});
  for (auto& v : weights.data()) {
    v = static_cast<float>(rng.normal(0.0, 0.5));
  }
  imc::CrossbarConfig config = options_.config;
  config.seed = options_.seed;
  shared_ = std::make_shared<Shared>(weights, config);
  crossbar_ = std::shared_ptr<imc::Crossbar>(shared_, &shared_->crossbar);
  // Unique per instance: same-shape clients own different device state, so
  // cross-client batching would scatter through the wrong array.
  static std::atomic<std::uint64_t> next_client{0};
  key_ = "mvm:" + std::to_string(options_.dim) + "x" +
         std::to_string(options_.dim) + ":seed" +
         std::to_string(options_.seed) + ":client" +
         std::to_string(next_client.fetch_add(1, std::memory_order_relaxed));
}

std::uint64_t MvmBatchClient::device_passes() const {
  return shared_->passes.load(std::memory_order_relaxed);
}

core::JobRequest MvmBatchClient::make_request(
    std::vector<float> x, std::shared_ptr<std::vector<double>> out) {
  if (x.size() != options_.dim) {
    throw core::Error("service::MvmBatchClient", "input length mismatch",
                      "got " + std::to_string(x.size()) + ", expected " +
                          std::to_string(options_.dim));
  }
  core::JobRequest request;
  request.tenant = options_.tenant;
  request.priority = options_.priority;
  request.coalesce_key = key_;
  request.cost_estimate_seconds = options_.cost_estimate_seconds;
  request.body = [shared = shared_, x = std::move(x),
                  out = std::move(out)](core::JobContext& ctx) mutable {
    auto& state = ctx.batch_state();
    if (!state) {
      auto fresh = std::make_shared<MvmGather>();
      fresh->inputs.reserve(x.size() * ctx.batch_size());
      fresh->slots.reserve(ctx.batch_size());
      state = std::move(fresh);
    }
    auto* gather = static_cast<MvmGather*>(state.get());
    gather->inputs.insert(gather->inputs.end(), x.begin(), x.end());
    gather->slots.push_back(std::move(out));  // body runs at most once
    ctx.heartbeat();
    if (ctx.batch_index() + 1 != ctx.batch_size()) return;
    // Last live member: one device pass over every gathered input, then
    // scatter in member order. `count` comes from the gather (not
    // batch_size()) so a member that threw before gathering shrinks the
    // pass instead of misaligning it.
    const std::size_t count = gather->slots.size();
    std::vector<double> ys;
    {
      const std::lock_guard<std::mutex> lock(shared->device_mutex);
      ys = shared->crossbar.matvec_raw_batch(gather->inputs, count);
      shared->passes.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t out_dim = ys.size() / count;
    for (std::size_t i = 0; i < count; ++i) {
      if (gather->slots[i]) {
        gather->slots[i]->assign(ys.begin() + i * out_dim,
                                 ys.begin() + (i + 1) * out_dim);
      }
    }
  };
  return request;
}

// ---------------------------------------------------------------------------
// Coalesced (deduplicated) design-point evaluations.

core::JobRequest make_dse_eval_request(DseEvalOptions options,
                                       std::shared_ptr<hls::DesignPoint> out) {
  core::JobRequest request;
  request.tenant = options.tenant;
  request.priority = options.priority;
  request.cost_estimate_seconds = options.cost_estimate_seconds;
  request.coalesce_key =
      "dse:" + options.kernel.name() + ":" +
      std::to_string(options.kernel.size()) + ":u" +
      std::to_string(options.unroll) + ":a" +
      std::to_string(options.budget.alus) + "m" +
      std::to_string(options.budget.muls) + "d" +
      std::to_string(options.budget.divs) + "p" +
      std::to_string(options.budget.mem_ports) + ":i" +
      std::to_string(options.config.iterations) +
      (options.config.pipelined ? ":pipe" : "") + ":" +
      options.config.device.part;
  request.body = [options = std::move(options),
                  out = std::move(out)](core::JobContext& ctx) {
    // Same key => identical evaluation: the first member of a coalesced
    // group pays for the pipeline pass and parks the point in the shared
    // slot; every member (the first included) copies it out.
    auto& state = ctx.batch_state();
    if (!state) {
      state = std::make_shared<hls::DesignPoint>(hls::evaluate_design(
          options.kernel, options.unroll, options.budget, options.config));
    }
    ctx.heartbeat();
    if (out) *out = *static_cast<hls::DesignPoint*>(state.get());
  };
  return request;
}

JobBody make_conv_job(ConvJobOptions options, std::shared_ptr<double> out) {
  return [options, out = std::move(out)](core::JobContext& ctx) {
    ctx.heartbeat();
    core::Rng rng(options.seed);
    approx::ConvLayer layer;
    layer.weights = core::TensorF(
        {options.out_channels, options.in_channels, options.kernel,
         options.kernel});
    for (auto& v : layer.weights.data()) {
      v = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    layer.bias.assign(options.out_channels, 0.0f);
    approx::FeatureMap input(
        {options.in_channels, options.height, options.width});
    for (auto& v : input.data()) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const approx::QuantConfig quant;
    const int repeats = static_cast<int>(scaled_trials(
        static_cast<std::size_t>(std::max(1, options.repeats)), ctx.tier()));
    double checksum = 0.0;
    for (int r = 0; r < repeats; ++r) {
      if (ctx.cancelled()) break;
      const approx::FeatureMap result = layer.apply(input, quant);
      checksum = 0.0;
      for (const float v : result.data()) checksum += v;
      ctx.heartbeat();
    }
    if (out) *out = checksum;
  };
}

JobBody make_scf_job(ScfJobOptions options,
                     std::shared_ptr<scf::ModelInferenceEstimate> out) {
  return [options = std::move(options),
          out = std::move(out)](core::JobContext& ctx) {
    ctx.heartbeat();
    if (ctx.cancelled()) return;
    const int layers = static_cast<int>(scaled_trials(
        static_cast<std::size_t>(std::max(1, options.layers)), ctx.tier()));
    const scf::TransformerModel model(options.model, layers);
    const auto estimate = scf::estimate_model_inference(model, options.fabric);
    ctx.heartbeat();
    if (out) *out = estimate;
  };
}

ResubmitResult submit_with_backoff(core::CampaignService& service,
                                   core::JobRequest request,
                                   const core::RetryPolicy& policy,
                                   std::function<void(double)> sleep) {
  if (!sleep) {
    sleep = [](double seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    };
  }
  ResubmitResult result;
  result.retry = core::retry_until(
      policy,
      [&](int) {
        result.outcome = service.submit(request);
        return result.outcome.admitted;
      },
      [&](double seconds) {
        // The service's hint dominates when it promises relief later than
        // the schedule would retry.
        sleep(std::max(seconds, result.outcome.retry_after_seconds));
      });
  return result;
}

}  // namespace icsc::service
