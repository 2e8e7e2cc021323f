// ScenarioConfig JSON codec: round-trip fidelity, strict unknown-key
// handling (a typo must be an error, not a silently-defaulted field),
// cross-field validation, and the field table that drives the codec and
// the sorn_tool flags (one accepted range per field on both paths).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "scenario/scenario_config.h"
#include "util/args.h"

namespace sorn {
namespace {

ScenarioConfig non_default_config() {
  ScenarioConfig cfg;
  cfg.design = "opera";
  cfg.nodes = 96;
  cfg.cliques = 12;
  cfg.locality_x = 0.71;
  cfg.q_num = 3;
  cfg.q_den = 2;
  cfg.max_q_denominator = 8;
  cfg.lb_first_available = true;
  cfg.inter_clique_weights = {0.0, 2.0, 2.0, 0.0};
  cfg.weighted_alpha = 0.9;
  cfg.clusters = 3;
  cfg.pods_per_cluster = 2;
  cfg.pod_locality_x1 = 0.45;
  cfg.cluster_locality_x2 = 0.25;
  cfg.dwell_slots = 64;
  cfg.schedule_seed = 99;
  cfg.max_short_hops = 4;
  cfg.bulk_cutoff_bytes = 1 << 20;
  cfg.orn_dims = 3;
  cfg.radices = {4, 6};
  cfg.lanes = 2;
  cfg.slot_ns = 200;
  cfg.propagation_ns = 500;
  cfg.cell_bytes = 512;
  cfg.max_queue_cells = 64;
  cfg.seed = 1234;
  cfg.threads = 4;
  cfg.traffic = TrafficKind::kRing;
  cfg.ring_heavy_share = 0.75;
  cfg.traffic_backend = DemandBackend::kProcedural;
  cfg.workload = WorkloadKind::kIncast;
  cfg.load = 0.55;
  cfg.slots = 12345;
  cfg.drain_slots = 42;
  cfg.warmup_slots = 11;
  cfg.measure_slots = 22;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 4096;
  cfg.flow_size_cap = 65536;
  cfg.classify = ClassifyKind::kSize;
  cfg.arrival_seed = 5;
  cfg.workload_seed = 6;
  cfg.incast_fanin = 12;
  cfg.incast_bytes = 32768;
  cfg.incast_period_slots = 128;
  cfg.collective_kind = "tree";
  cfg.collective_bytes = 1 << 19;
  cfg.collective_phase_gap_slots = 96;
  cfg.rack_local_frac = 0.8;
  cfg.oversub_factor = 2.5;
  cfg.transport = "dctcp";
  cfg.ecn_threshold_cells = 8;
  cfg.init_cwnd_cells = 16;
  cfg.max_cwnd_cells = 128;
  cfg.dctcp_gain = 0.125;
  cfg.trace_path = "out.jsonl";
  cfg.metrics_json_path = "out.json";
  cfg.timeseries_csv_path = "out.csv";
  cfg.sample_every = 10;
  cfg.fault_script = "fail node 3 @ 100";
  cfg.node_mtbf_slots = 5000.0;
  cfg.node_mttr_slots = 400.0;
  cfg.circuit_mtbf_slots = 9000.0;
  cfg.circuit_mttr_slots = 300.0;
  cfg.fault_seed = 77;
  cfg.retransmit_timeout = 256;
  cfg.retransmit_max_attempts = 4;
  cfg.retransmit_jitter = 0.3;
  cfg.epoch_slots = 400;
  cfg.update_delay_slots = 24;
  cfg.control_outages = {100, 300, 900, 1100};
  cfg.controller_mtbf_slots = 7000.0;
  cfg.controller_mttr_slots = 600.0;
  cfg.control_fault_seed = 21;
  cfg.replan_apply_delay = 16;
  cfg.estimate_stale_epochs = 2;
  cfg.estimate_noise = 0.15;
  cfg.safe_mode = "vlb";
  cfg.check_invariants = true;
  return cfg;
}

TEST(ScenarioConfigTest, DefaultsRoundTrip) {
  const ScenarioConfig cfg;
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(cfg.to_json(), &back, &error))
      << error;
  EXPECT_EQ(cfg.to_json(), back.to_json());
}

TEST(ScenarioConfigTest, EveryFieldRoundTrips) {
  const ScenarioConfig cfg = non_default_config();
  const std::string doc = cfg.to_json();
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(doc, &back, &error)) << error;
  // Byte-identical re-serialization proves every serializable field
  // survived (the writer emits all of them in a fixed order).
  EXPECT_EQ(doc, back.to_json());
  EXPECT_EQ(back.design, "opera");
  EXPECT_EQ(back.nodes, 96);
  EXPECT_EQ(back.radices, (std::vector<NodeId>{4, 6}));
  EXPECT_EQ(back.workload, WorkloadKind::kIncast);
  EXPECT_EQ(back.traffic, TrafficKind::kRing);
  EXPECT_EQ(back.traffic_backend, DemandBackend::kProcedural);
  EXPECT_EQ(back.flow_size, FlowSizeKind::kFixed);
  EXPECT_EQ(back.classify, ClassifyKind::kSize);
  EXPECT_DOUBLE_EQ(back.node_mtbf_slots, 5000.0);
  EXPECT_EQ(back.retransmit_timeout, 256);
  EXPECT_EQ(back.incast_fanin, 12);
  EXPECT_EQ(back.incast_bytes, 32768u);
  EXPECT_EQ(back.incast_period_slots, 128);
  EXPECT_EQ(back.collective_kind, "tree");
  EXPECT_DOUBLE_EQ(back.oversub_factor, 2.5);
  EXPECT_EQ(back.transport, "dctcp");
  EXPECT_EQ(back.ecn_threshold_cells, 8u);
  EXPECT_DOUBLE_EQ(back.dctcp_gain, 0.125);
}

TEST(ScenarioConfigTest, AbsentFieldsKeepDefaults) {
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(R"({"design": "vlb", "nodes": 16})",
                                        &back, &error))
      << error;
  EXPECT_EQ(back.design, "vlb");
  EXPECT_EQ(back.nodes, 16);
  const ScenarioConfig defaults;
  EXPECT_EQ(back.cliques, defaults.cliques);
  EXPECT_DOUBLE_EQ(back.load, defaults.load);
  EXPECT_EQ(back.workload, defaults.workload);
}

TEST(ScenarioConfigTest, UnknownKeyIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"nodez": 16})", &back, &error));
  EXPECT_NE(error.find("nodez"), std::string::npos) << error;
}

TEST(ScenarioConfigTest, TypeMismatchIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"nodes": "many"})", &back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioConfigTest, BadEnumValueIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json(R"({"workload": "turbo"})", &back,
                                         &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioConfigTest, BadTrafficBackendIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json(
      R"({"traffic_backend": "hologram"})", &back, &error));
  EXPECT_NE(error.find("backend"), std::string::npos) << error;
}

TEST(ScenarioConfigTest, MalformedJsonLeavesOutputUntouched) {
  ScenarioConfig back;
  back.design = "sentinel";
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json("{\"nodes\": ", &back, &error));
  EXPECT_EQ(back.design, "sentinel");
}

TEST(ScenarioConfigTest, ValidateRejectsBadRanges) {
  std::string error;
  ScenarioConfig cfg;
  cfg.nodes = 1;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.locality_x = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.node_mtbf_slots = 1000.0;  // MTBF without MTTR
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("MTTR"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.fault_script = "fail node 0 @ 1";
  cfg.fault_script_path = "script.txt";
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, ValidateRejectsBadControlFaultFields) {
  std::string error;
  ScenarioConfig cfg;
  cfg.epoch_slots = 100;
  cfg.control_outages = {10, 20, 30};  // odd length: not (start, end) pairs
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.control_outages = {50, 40};  // end before start
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.controller_mtbf_slots = 1000.0;  // MTBF without MTTR
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.safe_mode = "panic";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("safe_mode"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.estimate_noise = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.retransmit_jitter = -0.1;
  EXPECT_FALSE(cfg.validate(&error));

  // Any control-plane fault knob without a control plane to break is a
  // config error, not a silent no-op.
  cfg = ScenarioConfig{};
  cfg.control_outages = {10, 20};
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("epoch_slots"), std::string::npos) << error;

  // The same knobs with a control loop are fine.
  cfg.epoch_slots = 100;
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, ValidateRejectsBadWorkloadAndTransportFields) {
  std::string error;
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kIncast;
  cfg.nodes = 16;
  cfg.incast_fanin = 16;  // fanin must leave room for the receiver
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("incast_fanin"), std::string::npos) << error;

  // Other workloads tolerate any default fanin at small N.
  cfg = ScenarioConfig{};
  cfg.nodes = 16;
  cfg.cliques = 4;
  EXPECT_TRUE(cfg.validate(&error)) << error;

  cfg = ScenarioConfig{};
  cfg.workload = WorkloadKind::kCollective;
  cfg.collective_kind = "butterfly";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("collective_kind"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.rack_local_frac = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.oversub_factor = 0.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.transport = "quic";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("transport"), std::string::npos) << error;

  // The closed-loop transport needs a flow driver to pump it.
  cfg = ScenarioConfig{};
  cfg.transport = "dctcp";
  cfg.workload = WorkloadKind::kSaturation;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.transport = "dctcp";
  cfg.init_cwnd_cells = 64;
  cfg.max_cwnd_cells = 32;  // init above max
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.dctcp_gain = 0.0;
  EXPECT_FALSE(cfg.validate(&error));

  // The happy paths: each new workload and the transport validate.
  cfg = ScenarioConfig{};
  cfg.workload = WorkloadKind::kIncast;
  cfg.transport = "dctcp";
  cfg.ecn_threshold_cells = 8;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.workload = WorkloadKind::kCollective;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.workload = WorkloadKind::kOversubRack;
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, LoadFileRoundTrips) {
  const ScenarioConfig cfg = non_default_config();
  const std::string path = ::testing::TempDir() + "scenario_cfg_test.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string doc = cfg.to_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);

  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::load_file(path, &back, &error)) << error;
  EXPECT_EQ(doc, back.to_json());
  std::remove(path.c_str());

  EXPECT_FALSE(
      ScenarioConfig::load_file("/nonexistent/scenario.json", &back, &error));
  EXPECT_FALSE(error.empty());
}

// The parent layout's default document, byte for byte: pins the key
// order and the number formatting every saved scenario depends on.
TEST(ScenarioConfigTest, DefaultDocumentBytesArePinned) {
  const std::string expected =
      R"({"design":"sorn","nodes":64,"cliques":8,)"
      R"("locality":0.56000000000000005,"q_num":0,"q_den":1,)"
      R"("max_q_denominator":6,"lb_first_available":false,)"
      R"("inter_clique_weights":[],"weighted_alpha":0.69999999999999996,)"
      R"("clusters":4,"pods_per_cluster":4,"pod_locality_x1":0.5,)"
      R"("cluster_locality_x2":0.29999999999999999,"dwell_slots":900,)"
      R"("schedule_seed":17,"max_short_hops":6,"bulk_cutoff_bytes":0,)"
      R"("orn_dims":2,"radices":[],"lanes":1,"slot_ns":100,)"
      R"("propagation_ns":0,"cell_bytes":256,"max_queue_cells":0,"seed":42,)"
      R"("threads":0,"traffic":"locality",)"
      R"("ring_heavy_share":0.84999999999999998,"traffic_backend":"dense",)"
      R"("workload":"flows","load":0.29999999999999999,"slots":30000,)"
      R"("drain_slots":200000,"warmup_slots":4000,"measure_slots":8000,)"
      R"("flow_size":"pfabric-web-search","fixed_flow_bytes":2560,)"
      R"("flow_size_cap":0,"classify":"none","arrival_seed":1,)"
      R"("workload_seed":7,"incast_fanin":32,"incast_bytes":16384,)"
      R"("incast_period_slots":512,"collective_kind":"ring",)"
      R"("collective_bytes":262144,"collective_phase_gap_slots":256,)"
      R"("rack_local_frac":0.59999999999999998,"oversub_factor":4,)"
      R"("transport":"open-loop","ecn_threshold_cells":0,)"
      R"("init_cwnd_cells":8,"max_cwnd_cells":256,"dctcp_gain":0.0625,)"
      R"("trace":"","metrics_json":"","timeseries_csv":"","sample_every":1,)"
      R"("profile":false,"profile_json":"","fault_script":"",)"
      R"("fault_script_path":"","mtbf":0,"mttr":0,"circuit_mtbf":0,)"
      R"("circuit_mttr":0,"fault_seed":1,"epoch_slots":0,)"
      R"("update_delay_slots":0,"control_outages":[],"controller_mtbf":0,)"
      R"("controller_mttr":0,"control_fault_seed":1,"replan_apply_delay":0,)"
      R"("estimate_stale_epochs":0,"estimate_noise":0,"safe_mode":"hold",)"
      R"("check_invariants":false,"retransmit_timeout":0,)"
      R"("retransmit_max_attempts":8,"retransmit_jitter":0})"
      "\n";
  EXPECT_EQ(ScenarioConfig{}.to_json(), expected);
}

TEST(ScenarioConfigTest, NoTwoRowsShareAKeyOrAFlag) {
  std::set<std::string> keys;
  std::set<std::string> flags;
  for (const ScenarioField& f : scenario_fields()) {
    EXPECT_TRUE(keys.insert(f.key).second) << f.key;
    if (f.flag != nullptr) {
      EXPECT_TRUE(flags.insert(f.flag).second) << f.flag;
    }
  }
  EXPECT_EQ(keys.size(), 82u);
  EXPECT_EQ(flags.size(), 49u);
}

TEST(ScenarioConfigTest, IntegersOutsideTheMemberTypeAreRejected) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"cell_bytes": -1})", &back, &error));
  EXPECT_NE(error.find("cell_bytes"), std::string::npos) << error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"nodes": 4294967312})", &back, &error));
  EXPECT_NE(error.find("nodes"), std::string::npos) << error;
  // Past int64 the literal is not clamped to the int64 limit.
  EXPECT_FALSE(ScenarioConfig::from_json(R"({"seed": 9223372036854775808})",
                                         &back, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

// Base for the table-driven tests: a control loop and positive MTTRs, so
// the control-fault and MTBF knobs pass the cross-field rules.
constexpr const char* kBaseDoc =
    R"({"epoch_slots": 100, "mttr": 1, "circuit_mttr": 1,)"
    R"( "controller_mttr": 1})";

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  std::string error;
  EXPECT_TRUE(ScenarioConfig::from_json(kBaseDoc, &cfg, &error)) << error;
  return cfg;
}

// apply_scenario_flags on `words` the way sorn_tool simulate calls it,
// then validate(); exits 0 when the value is accepted, 2 from the applier
// on a flag error, 3 when a cross-field rule rejects the result.
[[noreturn]] void apply_flags_and_exit(std::vector<std::string> words) {
  words.insert(words.begin(), "sorn_tool");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  ScenarioConfig cfg = base_config();
  apply_scenario_flags(args, &cfg);
  args.finish();
  std::exit(cfg.validate(nullptr) ? 0 : 3);
}

TEST(ScenarioConfigTest, FlagOutsideTheMemberTypeIsAUsageError) {
  EXPECT_EXIT(apply_flags_and_exit({"--nodes", "4294967312"}),
              ::testing::ExitedWithCode(2), "--nodes");
  EXPECT_EXIT(apply_flags_and_exit({"--seed", "-1"}),
              ::testing::ExitedWithCode(2), "--seed");
}

TEST(ScenarioConfigTest, ListFlagElementsMustBeWholeIntegers) {
  EXPECT_EXIT(apply_flags_and_exit({"--control-outages", "100x,300zz"}),
              ::testing::ExitedWithCode(2), "--control-outages");
  EXPECT_EXIT(apply_flags_and_exit({"--control-outages", "100,"}),
              ::testing::ExitedWithCode(2), "--control-outages");
  EXPECT_EXIT(apply_flags_and_exit({"--control-outages", "100,300"}),
              ::testing::ExitedWithCode(0), "");
}

struct Probe {
  std::string token;  // the flag value
  std::string json;   // the same value as a JSON literal
};

std::vector<std::string> choice_list(const FieldLimits& limits) {
  std::vector<std::string> names(1);
  for (const char* c = limits.choices; *c != '\0'; ++c) {
    if (*c == '|') {
      names.emplace_back();
    } else {
      names.back() += *c;
    }
  }
  return names;
}

std::string int_text(__int128 v) {
  if (v < 0) return "-" + int_text(-v);
  std::string digits;
  do {
    digits.insert(digits.begin(), static_cast<char>('0' + v % 10));
    v /= 10;
  } while (v > 0);
  return digits;
}

std::string double_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Values at and just past each end of the row's accepted range (and of
// the member's type), every choice plus a bogus one, or one list shape.
template <typename T>
std::vector<Probe> boundary_probes(const FieldLimits& limits) {
  std::vector<Probe> out;
  auto quoted = [&](const std::string& s) {
    out.push_back({s, "\"" + s + "\""});
  };
  if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
    for (const char* list : {"1,2", "-1,2", "5,3", ""})
      out.push_back({list, std::string("[") + list + "]"});
  } else if constexpr (std::is_integral_v<T>) {
    // JSON and flag integers are int64, so that caps the uint64 members.
    const __int128 type_lo = std::numeric_limits<T>::min();
    const __int128 type_hi =
        std::min<__int128>(std::numeric_limits<T>::max(),
                           std::numeric_limits<std::int64_t>::max());
    const __int128 lo =
        std::isinf(limits.lo)
            ? type_lo
            : std::max(type_lo, static_cast<__int128>(limits.lo));
    for (const __int128 v : {lo - 1, lo, type_hi, type_hi + 1})
      out.push_back({int_text(v), int_text(v)});
  } else if constexpr (std::is_same_v<T, double>) {
    std::vector<double> values{0.5};
    if (!std::isinf(limits.lo))
      values.insert(values.end(), {limits.lo, limits.lo - 0.5});
    if (!std::isinf(limits.hi))
      values.insert(values.end(), {limits.hi, limits.hi + 0.5});
    for (const double v : values)
      out.push_back({double_text(v), double_text(v)});
  } else if constexpr (!std::is_same_v<T, bool>) {
    if (limits.choices == nullptr) {
      quoted("x");
    } else {
      for (const std::string& name : choice_list(limits)) quoted(name);
      quoted("bogus");
    }
  }
  return out;
}

TEST(ScenarioConfigTest, FlagsAndJsonAcceptTheSameBoundaryValues) {
  const std::string base_doc = kBaseDoc;
  int rejected = 0;
  for (const ScenarioField& f : scenario_fields()) {
    if (f.flag == nullptr) continue;
    const std::vector<Probe> probes = std::visit(
        [&](auto m) {
          using T = std::remove_cvref_t<decltype(ScenarioConfig{}.*m)>;
          return boundary_probes<T>(f.limits);
        },
        f.member);
    for (const Probe& p : probes) {
      const std::string doc = base_doc.substr(0, base_doc.size() - 1) +
                              ", \"" + f.key + "\": " + p.json + "}";
      ScenarioConfig cfg;
      std::string error;
      const bool json_ok = ScenarioConfig::from_json(doc, &cfg, &error);
      rejected += json_ok ? 0 : 1;
      const std::function<bool(int)> same_verdict = [json_ok](int status) {
        return WIFEXITED(status) && (WEXITSTATUS(status) == 0) == json_ok;
      };
      EXPECT_EXIT(apply_flags_and_exit({f.flag, p.token}), same_verdict, "")
          << f.flag << " " << p.token << " (JSON: "
          << (json_ok ? "accepted" : error) << ")";
    }
  }
  EXPECT_GT(rejected, 48);
}

// One value per row that differs from the base and passes validate().
template <typename T>
T non_default(const T& v, const FieldLimits& limits) {
  if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_enum_v<T>) {
    const auto n = static_cast<int>(choice_list(limits).size());
    return static_cast<T>((static_cast<int>(v) + 1) % n);
  } else if constexpr (std::is_arithmetic_v<T>) {
    const T step = std::is_integral_v<T> ? T(1) : T(0.125);
    return static_cast<double>(v + step) <= limits.hi ? v + step : v - step;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (limits.choices == nullptr) return v + "x";
    const std::vector<std::string> names = choice_list(limits);
    const auto at = std::find(names.begin(), names.end(), v) - names.begin();
    return names[static_cast<std::size_t>(at + 1) % names.size()];
  } else {
    return T{1, 2};  // a valid [start, end) pair for control_outages
  }
}

TEST(ScenarioConfigTest, EveryRowRoundTripsANonDefaultValue) {
  const ScenarioConfig base = base_config();
  for (const ScenarioField& f : scenario_fields()) {
    ScenarioConfig cfg = base;
    std::visit([&](auto m) { cfg.*m = non_default(cfg.*m, f.limits); },
               f.member);
    const std::string doc = cfg.to_json();
    EXPECT_NE(doc, base.to_json()) << f.key;
    ScenarioConfig back;
    std::string error;
    ASSERT_TRUE(ScenarioConfig::from_json(doc, &back, &error))
        << f.key << ": " << error;
    EXPECT_EQ(back.to_json(), doc) << f.key;
  }
}

}  // namespace
}  // namespace sorn
