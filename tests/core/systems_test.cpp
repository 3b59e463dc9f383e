#include "core/systems.hpp"

#include <gtest/gtest.h>

#include "workflow/montage.hpp"
#include "workload/models.hpp"

namespace dc::core {
namespace {

/// A small, fast synthetic HTC workload for system-level tests.
HtcWorkloadSpec small_htc(std::uint64_t seed = 11) {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "small";
  trace_spec.capacity_nodes = 32;
  trace_spec.period = 2 * kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 150;
  trace_spec.width_weights = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.08}, {32, 0.02}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 500;
  trace_spec.hyper_mean2 = 4000;

  HtcWorkloadSpec spec;
  spec.name = "small";
  spec.trace = workload::generate_trace(trace_spec, seed);
  spec.fixed_nodes = 32;
  spec.policy = ResourceManagementPolicy::htc(8, 1.5, 32);
  return spec;
}

MtcWorkloadSpec small_mtc() {
  workflow::MontageParams params;
  params.inputs = 20;  // 124 tasks
  MtcWorkloadSpec spec;
  spec.name = "wf";
  spec.dag = workflow::make_montage(params, 5);
  spec.submit_time = 6 * kHour;
  spec.fixed_nodes = 20;
  spec.policy = ResourceManagementPolicy::mtc(4, 8.0);
  return spec;
}

ConsolidationWorkload small_consolidation() {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  workload.mtc.push_back(small_mtc());
  return workload;
}

TEST(Systems, ModelNamesAndTraits) {
  EXPECT_STREQ(system_model_name(SystemModel::kDcs), "DCS");
  EXPECT_STREQ(system_model_name(SystemModel::kDawningCloud), "DawningCloud");
  EXPECT_STREQ(system_traits(SystemModel::kDcs).resource_property, "local");
  EXPECT_STREQ(system_traits(SystemModel::kSsp).resource_property, "leased");
  EXPECT_STREQ(system_traits(SystemModel::kDrp).provisioning, "manual");
  EXPECT_STREQ(system_traits(SystemModel::kDawningCloud).provisioning,
               "flexible");
}

TEST(Systems, EffectiveHorizonFromTracePeriod) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  EXPECT_EQ(workload.effective_horizon(), 2 * kDay);
  workload.horizon = 5 * kDay;
  EXPECT_EQ(workload.effective_horizon(), 5 * kDay);
}

TEST(Systems, EffectiveHorizonCoversLateMtcSubmission) {
  ConsolidationWorkload workload;
  MtcWorkloadSpec mtc = small_mtc();
  mtc.submit_time = 10 * kDay;
  workload.mtc.push_back(std::move(mtc));
  EXPECT_GE(workload.effective_horizon(), 10 * kDay + 2 * kHour);
}

TEST(Systems, DcsAndSspAreIdenticalExceptAdjustments) {
  const auto workload = small_consolidation();
  const auto dcs = run_system(SystemModel::kDcs, workload);
  const auto ssp = run_system(SystemModel::kSsp, workload);
  ASSERT_EQ(dcs.providers.size(), ssp.providers.size());
  for (std::size_t i = 0; i < dcs.providers.size(); ++i) {
    EXPECT_EQ(dcs.providers[i].consumption_node_hours,
              ssp.providers[i].consumption_node_hours);
    EXPECT_EQ(dcs.providers[i].completed_jobs, ssp.providers[i].completed_jobs);
    EXPECT_DOUBLE_EQ(dcs.providers[i].tasks_per_second,
                     ssp.providers[i].tasks_per_second);
  }
  EXPECT_EQ(dcs.peak_nodes, ssp.peak_nodes);
  EXPECT_EQ(dcs.adjusted_nodes, 0) << "DCS providers own their nodes";
  // SSP adjusts at RE startup and finalization only: 2 * (32 + 20).
  EXPECT_EQ(ssp.adjusted_nodes, 2 * (32 + 20));
}

TEST(Systems, DcsHtcConsumptionIsSizeTimesPeriod) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  const auto result = run_system(SystemModel::kDcs, workload);
  EXPECT_EQ(result.provider("small").consumption_node_hours, 32 * 48);
}

TEST(Systems, DeterministicAcrossRuns) {
  const auto workload = small_consolidation();
  const auto a = run_system(SystemModel::kDawningCloud, workload);
  const auto b = run_system(SystemModel::kDawningCloud, workload);
  EXPECT_EQ(a.total_consumption_node_hours, b.total_consumption_node_hours);
  EXPECT_EQ(a.peak_nodes, b.peak_nodes);
  EXPECT_EQ(a.adjusted_nodes, b.adjusted_nodes);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
  for (std::size_t i = 0; i < a.providers.size(); ++i) {
    EXPECT_EQ(a.providers[i].completed_jobs, b.providers[i].completed_jobs);
  }
}

TEST(Systems, AllSystemsCompleteTheMtcWorkflow) {
  const auto workload = small_consolidation();
  for (const auto& result : run_all_systems(workload)) {
    const auto& wf = result.provider("wf");
    EXPECT_EQ(wf.completed_jobs, 124)
        << system_model_name(result.model);
    EXPECT_GT(wf.tasks_per_second, 0.0);
    EXPECT_EQ(wf.type, WorkloadType::kMtc);
  }
}

TEST(Systems, DrpMtcUsesMoreResourcesButIsFaster) {
  ConsolidationWorkload workload;
  workload.mtc.push_back(small_mtc());
  const auto dcs = run_system(SystemModel::kDcs, workload);
  const auto drp = run_system(SystemModel::kDrp, workload);
  EXPECT_GT(drp.provider("wf").consumption_node_hours,
            dcs.provider("wf").consumption_node_hours);
  EXPECT_GE(drp.provider("wf").tasks_per_second,
            dcs.provider("wf").tasks_per_second);
}

TEST(Systems, PlatformPeakIsSumAwareNotProviderSum) {
  const auto workload = small_consolidation();
  const auto result = run_system(SystemModel::kDcs, workload);
  // HTC holds 32 for the whole run; the MTC RE holds 20 during its window:
  // the platform peak is 52 while both are active.
  EXPECT_EQ(result.peak_nodes, 52);
}

TEST(Systems, BoundedPlatformRejectsAndDegrades) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  RunOptions options;
  options.platform_capacity = 16;  // below the 32-node fixed requirement
  const auto result = run_system(SystemModel::kSsp, workload, options);
  // Startup request for 32 was rejected: nothing ran, every submission was
  // refused by the portal.
  EXPECT_GT(result.rejected_requests, 0);
  EXPECT_EQ(result.provider("small").completed_jobs, 0);
  EXPECT_EQ(result.provider("small").submitted_jobs, 0);
}

TEST(Systems, HourlyPeakSeriesMatchesPeak) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  const auto result = run_system(SystemModel::kDawningCloud, workload);
  ASSERT_FALSE(result.hourly_peak_series.empty());
  EXPECT_EQ(result.hourly_peak_series.size(),
            static_cast<std::size_t>(result.horizon / kHour));
  std::int64_t series_max = 0;
  for (std::int64_t level : result.hourly_peak_series) {
    series_max = std::max(series_max, level);
  }
  EXPECT_EQ(series_max, result.peak_nodes);
}

TEST(Systems, ElasticServerSurvivesBoundedPlatform) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  RunOptions options;
  options.platform_capacity = 24;  // initial 8 fits; some grants rejected
  const auto result = run_system(SystemModel::kDawningCloud, workload, options);
  EXPECT_GT(result.provider("small").completed_jobs, 0);
  EXPECT_LE(result.peak_nodes, 24);
}

TEST(Systems, BillingQuantumOptionChangesTotals) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  RunOptions minute;
  minute.billing_quantum = kMinute;
  const auto drp_hour = run_system(SystemModel::kDrp, workload);
  const auto drp_minute = run_system(SystemModel::kDrp, workload, minute);
  EXPECT_LT(drp_minute.total_consumption_node_hours,
            drp_hour.total_consumption_node_hours)
      << "finer quantum removes rounding";
}

TEST(Systems, GeneralizedManyProviderConsolidation) {
  // The paper's future-work case: m service providers on one platform
  // (here 3 HTC + 2 MTC).
  ConsolidationWorkload workload;
  for (std::uint64_t i = 0; i < 3; ++i) {
    HtcWorkloadSpec spec = small_htc(100 + i);
    spec.name = "htc" + std::to_string(i);
    workload.htc.push_back(std::move(spec));
  }
  for (int i = 0; i < 2; ++i) {
    MtcWorkloadSpec spec = small_mtc();
    spec.name = "mtc" + std::to_string(i);
    spec.submit_time = (6 + 3 * i) * kHour;
    workload.mtc.push_back(std::move(spec));
  }
  const auto results = run_all_systems(workload);
  for (const auto& result : results) {
    EXPECT_EQ(result.providers.size(), 5u);
    for (const auto& provider : result.providers) {
      EXPECT_GT(provider.completed_jobs, 0)
          << system_model_name(result.model) << "/" << provider.provider;
    }
  }
  // Consolidation saving still appears with five providers.
  const auto& dcs = results[0];
  const auto& dawning = results[3];
  EXPECT_LT(dawning.total_consumption_node_hours,
            dcs.total_consumption_node_hours);
}

TEST(Systems, QueueContentionEliminatesRejections) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  RunOptions options;
  options.platform_capacity = 20;  // tight: initial 8 fits, grants contend

  options.contention = ProvisionPolicy::ContentionMode::kReject;
  const auto reject = run_system(SystemModel::kDawningCloud, workload, options);
  options.contention = ProvisionPolicy::ContentionMode::kQueueByPriority;
  const auto queue = run_system(SystemModel::kDawningCloud, workload, options);

  EXPECT_GT(reject.rejected_requests, 0);
  EXPECT_EQ(queue.rejected_requests, 0)
      << "queue mode converts rejections into waits";
  EXPECT_LE(queue.peak_nodes, 20);
  EXPECT_LE(reject.peak_nodes, 20);
  EXPECT_GT(queue.provider("small").completed_jobs, 0);
}

TEST(Systems, ProviderLookupByName) {
  ConsolidationWorkload workload;
  workload.htc.push_back(small_htc());
  const auto result = run_system(SystemModel::kDcs, workload);
  EXPECT_EQ(result.provider("small").provider, "small");
}

// The run vocabulary `dawningcloud run` flags and `dc sweep` axes share:
// every key with a valid value, the defaults, then one row per refusal
// with its exact message and code.
TEST(RunSettings, ReadsEveryKeyAndRefusesBadValues) {
  using Settings = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(run_setting_keys(),
            (std::vector<std::string>{"system", "scheduler", "quantum",
                                      "capacity", "setup", "mttf", "mttr",
                                      "fault-seed"}));

  auto all = parse_run_settings({{"system", "drp"},
                                 {"scheduler", "conservative-backfill"},
                                 {"quantum", "30m"},
                                 {"capacity", "800"},
                                 {"setup", "5m"},
                                 {"mttf", "200h"},
                                 {"mttr", "2h"},
                                 {"fault-seed", "-1"}});
  ASSERT_TRUE(all.is_ok()) << all.status().to_string();
  EXPECT_EQ(all->model, SystemModel::kDrp);
  EXPECT_EQ(all->options.htc_scheduler,
            HtcSchedulerKind::kConservativeBackfill);
  EXPECT_EQ(all->options.billing_quantum, 30 * kMinute);
  EXPECT_EQ(all->options.platform_capacity, 800);
  EXPECT_EQ(all->options.setup_latency, 5 * kMinute);
  ASSERT_TRUE(all->options.faults.has_value());
  EXPECT_EQ(all->options.faults->mean_time_between_failures, 200 * kHour);
  EXPECT_EQ(all->options.faults->mean_time_to_repair, 2 * kHour);
  EXPECT_EQ(all->options.faults->seed, ~std::uint64_t{0});  // -1 wraps

  auto defaults = parse_run_settings({{"capacity", "0"}});
  ASSERT_TRUE(defaults.is_ok()) << defaults.status().to_string();
  EXPECT_FALSE(defaults->model.has_value());
  EXPECT_EQ(defaults->options.billing_quantum, kHour);
  EXPECT_EQ(defaults->options.htc_scheduler, HtcSchedulerKind::kFirstFit);
  EXPECT_EQ(defaults->options.platform_capacity, 0);  // unbounded
  EXPECT_FALSE(defaults->options.faults.has_value());

  for (const auto& [name, model] :
       std::vector<std::pair<std::string, SystemModel>>{
           {"dcs", SystemModel::kDcs},
           {"ssp", SystemModel::kSsp},
           {"drp", SystemModel::kDrp},
           {"dawningcloud", SystemModel::kDawningCloud}}) {
    auto parsed = parse_run_settings({{"system", name}});
    ASSERT_TRUE(parsed.is_ok()) << name;
    EXPECT_EQ(parsed->model, model) << name;
  }
  for (HtcSchedulerKind kind :
       {HtcSchedulerKind::kFirstFit, HtcSchedulerKind::kEasyBackfill,
        HtcSchedulerKind::kConservativeBackfill, HtcSchedulerKind::kSjf}) {
    auto parsed =
        parse_run_settings({{"scheduler", htc_scheduler_name(kind)}});
    ASSERT_TRUE(parsed.is_ok()) << htc_scheduler_name(kind);
    EXPECT_EQ(parsed->options.htc_scheduler, kind);
  }

  struct Refusal {
    Settings settings;
    std::string message;
    StatusCode code = StatusCode::kInvalidArgument;
  };
  const std::string wants_nodes = "capacity wants a node count (0 = unbounded)";
  const std::vector<Refusal> refusals = {
      {{{"capacity", "abc"}}, wants_nodes + ", got 'abc'"},
      {{{"capacity", "12x"}}, wants_nodes + ", got '12x'"},
      {{{"capacity", "-5"}}, wants_nodes + ", got '-5'"},
      {{{"capacity", "99999999999999999999"}},
       wants_nodes + ", got '99999999999999999999'",
       StatusCode::kOutOfRange},
      {{{"mttf", "200h"}, {"mttr", "2h"}, {"fault-seed", "abc"}},
       "fault-seed wants an integer, got 'abc'"},
      {{{"fault-seed", "7"}}, "fault-seed needs mttf and mttr"},
      {{{"mttf", "200h"}}, "mttf and mttr must be given together"},
      {{{"mttr", "2h"}, {"fault-seed", "7"}},
       "mttf and mttr must be given together"},
      {{{"mttf", "0"}, {"mttr", "2h"}},
       "mttf wants a positive duration, got '0'"},
      {{{"quantum", "0"}}, "quantum wants a positive duration, got '0'"},
      {{{"quantum", "200000000000000d"}},
       "quantum wants a positive duration, got '200000000000000d'",
       StatusCode::kOutOfRange},
      {{{"setup", "-5m"}}, "setup wants a duration, got '-5m'"},
      {{{"queue", "heap"}},
       "unknown key 'queue' (known keys: system, scheduler, quantum, "
       "capacity, setup, mttf, mttr, fault-seed)"},
      {{{"system", "DCS"}}, "unknown system 'DCS' (dcs|ssp|drp|dawningcloud)"},
      {{{"system", "all"}}, "unknown system 'all' (dcs|ssp|drp|dawningcloud)"},
      {{{"scheduler", "fcfs"}},
       "unknown scheduler 'fcfs' "
       "(first-fit|easy-backfill|conservative-backfill|sjf)"},
      {{{"scheduler", "easy_backfill"}},
       "unknown scheduler 'easy_backfill' "
       "(first-fit|easy-backfill|conservative-backfill|sjf)"},
  };
  for (const Refusal& refusal : refusals) {
    auto parsed = parse_run_settings(refusal.settings);
    ASSERT_FALSE(parsed.is_ok()) << refusal.message;
    EXPECT_EQ(parsed.status().message(), refusal.message);
    EXPECT_EQ(parsed.status().code(), refusal.code) << refusal.message;
  }
}

}  // namespace
}  // namespace dc::core
