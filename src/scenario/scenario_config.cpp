#include "scenario/scenario_config.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <type_traits>
#include <utility>

#include "obs/json.h"
#include "obs/json_parse.h"
#include "util/args.h"
#include "util/table.h"

namespace sorn {

bool workload_uses_flow_driver(WorkloadKind k) {
  return k == WorkloadKind::kFlows || k == WorkloadKind::kIncast ||
         k == WorkloadKind::kCollective || k == WorkloadKind::kOversubRack;
}

namespace {

using SC = ScenarioConfig;

constexpr FieldLimits at_least(double lo) { return {.lo = lo}; }
constexpr FieldLimits within(double lo, double hi) {
  return {.lo = lo, .hi = hi};
}
constexpr FieldLimits above(double lo, double hi) {
  return {.lo = lo, .hi = hi, .lo_open = true};
}
constexpr FieldLimits one_of(const char* choices) {
  return {.choices = choices};
}
constexpr double kInf = std::numeric_limits<double>::infinity();

// The field table. Row order is the to_json key order, which scenario
// files and the pinned default document depend on.
const ScenarioField kFields[] = {
    {"design", &SC::design, "--design", "sorn_tool designs lists them"},
    {"nodes", &SC::nodes, "--nodes", "node count N", at_least(2)},
    {"cliques", &SC::cliques, "--cliques", "clique count Nc", at_least(1)},
    {"locality", &SC::locality_x, "--locality", "intra-clique traffic share x",
     within(0, 1)},
    {"q_num", &SC::q_num, nullptr, "sorn q numerator; q = 0/1 derives q*(x)",
     at_least(0)},
    {"q_den", &SC::q_den, nullptr, "sorn q denominator", at_least(1)},
    {"max_q_denominator", &SC::max_q_denominator, nullptr,
     "cap on the derived q* denominator"},
    {"lb_first_available", &SC::lb_first_available, nullptr,
     "first-available load balancing (sorn, vlb, rotor)"},
    {"inter_clique_weights", &SC::inter_clique_weights, nullptr,
     "Nc x Nc inter-slot weights; empty = round robin"},
    {"weighted_alpha", &SC::weighted_alpha, nullptr, "weighted-inter mix"},
    {"clusters", &SC::clusters, nullptr, "hier: clusters"},
    {"pods_per_cluster", &SC::pods_per_cluster, nullptr, "hier: pods each"},
    {"pod_locality_x1", &SC::pod_locality_x1, nullptr, "hier: pod share"},
    {"cluster_locality_x2", &SC::cluster_locality_x2, nullptr,
     "hier: cluster share"},
    {"dwell_slots", &SC::dwell_slots, nullptr, "rotor/opera: matching dwell"},
    {"schedule_seed", &SC::schedule_seed, nullptr, "opera: schedule seed"},
    {"max_short_hops", &SC::max_short_hops, nullptr, "opera: hop budget"},
    {"bulk_cutoff_bytes", &SC::bulk_cutoff_bytes, nullptr,
     "larger flows go direct; 0 = no split"},
    {"orn_dims", &SC::orn_dims, nullptr, "orn-hd/orn-mixed: dimensions"},
    {"radices", &SC::radices, nullptr, "orn-mixed: radices; empty = auto"},
    {"lanes", &SC::lanes, nullptr, "circuit lanes per node", at_least(1)},
    {"slot_ns", &SC::slot_ns, nullptr, "slot length (ns)", at_least(1)},
    {"propagation_ns", &SC::propagation_ns, nullptr, "per-hop delay (ns)",
     at_least(0)},
    {"cell_bytes", &SC::cell_bytes, nullptr, "cell size (bytes)"},
    {"max_queue_cells", &SC::max_queue_cells, nullptr, "VOQ cap; 0 = none"},
    {"seed", &SC::seed, "--seed", "network RNG seed"},
    {"threads", &SC::threads, "--threads",
     "engine threads, 0 = hardware; same bytes at any value", at_least(0)},
    {"traffic", &SC::traffic, nullptr, "traffic matrix family",
     one_of("locality|uniform|ring|hier-locality")},
    {"ring_heavy_share", &SC::ring_heavy_share, nullptr, "ring: heavy share"},
    {"traffic_backend", &SC::traffic_backend, "--traffic-backend",
     "demand storage; same bytes", one_of("dense|sparse|procedural")},
    {"workload", &SC::workload, "--workload", "traffic driver",
     one_of("flows|saturation|flow-saturation|incast|collective|"
            "oversub-rack")},
    {"load", &SC::load, "--load", "offered load per node", above(0, kInf)},
    {"slots", &SC::slots, "--slots", "flow arrival horizon", at_least(1)},
    {"drain_slots", &SC::drain_slots, nullptr, "post-horizon drain budget",
     at_least(0)},
    {"warmup_slots", &SC::warmup_slots, nullptr, "saturation: warmup",
     at_least(0)},
    {"measure_slots", &SC::measure_slots, nullptr, "saturation: measured",
     at_least(1)},
    {"flow_size", &SC::flow_size, nullptr, "flow size population",
     one_of("pfabric-web-search|pfabric-data-mining|fixed")},
    {"fixed_flow_bytes", &SC::fixed_flow_bytes, nullptr, "fixed flow size"},
    {"flow_size_cap", &SC::flow_size_cap, nullptr, "size cap; 0 = none"},
    {"classify", &SC::classify, nullptr, "FCT percentile classes",
     one_of("none|clique|size")},
    {"arrival_seed", &SC::arrival_seed, nullptr, "flow arrival seed"},
    {"workload_seed", &SC::workload_seed, nullptr, "saturation source seed"},
    {"incast_fanin", &SC::incast_fanin, "--incast-fanin",
     "incast senders per wave, <= nodes - 1", at_least(1)},
    {"incast_bytes", &SC::incast_bytes, "--incast-bytes",
     "bytes per incast sender", at_least(1)},
    {"incast_period_slots", &SC::incast_period_slots, "--incast-period",
     "slots between incast waves", at_least(1)},
    {"collective_kind", &SC::collective_kind, "--collective",
     "allreduce shape", one_of("ring|tree")},
    {"collective_bytes", &SC::collective_bytes, "--collective-bytes",
     "allreduce bytes per node", at_least(1)},
    {"collective_phase_gap_slots", &SC::collective_phase_gap_slots,
     "--collective-gap", "slots between allreduce phases", at_least(1)},
    {"rack_local_frac", &SC::rack_local_frac, "--rack-local-frac",
     "oversub-rack: in-rack demand share", within(0, 1)},
    {"oversub_factor", &SC::oversub_factor, "--oversub-factor",
     "oversub-rack: inter-rack multiplier", at_least(1)},
    {"transport", &SC::transport, "--transport", "end-host transport",
     one_of("open-loop|dctcp")},
    {"ecn_threshold_cells", &SC::ecn_threshold_cells, "--ecn-threshold",
     "VOQ depth that marks ECN; 0 = no marking"},
    {"init_cwnd_cells", &SC::init_cwnd_cells, "--init-cwnd",
     "initial DCTCP window (cells)", at_least(1)},
    {"max_cwnd_cells", &SC::max_cwnd_cells, "--max-cwnd",
     "DCTCP window cap (cells)", at_least(1)},
    {"dctcp_gain", &SC::dctcp_gain, "--dctcp-gain", "DCTCP alpha gain g",
     above(0, 1)},
    {"trace", &SC::trace_path, "--trace", "JSONL event trace path"},
    {"metrics_json", &SC::metrics_json_path, "--metrics-json",
     "metrics JSON path"},
    {"timeseries_csv", &SC::timeseries_csv_path, "--timeseries-csv",
     "per-slot CSV path"},
    {"sample_every", &SC::sample_every, "--sample-every",
     "CSV row every k slots", at_least(1)},
    {"profile", &SC::profile, "--profile", "attach the self-profiler"},
    {"profile_json", &SC::profile_json_path, "--profile-json",
     "profile report path; implies profile"},
    {"fault_script", &SC::fault_script, nullptr, "inline fault script"},
    {"fault_script_path", &SC::fault_script_path, "--fault-script",
     "fault script file"},
    {"mtbf", &SC::node_mtbf_slots, "--mtbf", "node MTBF (slots)", at_least(0)},
    {"mttr", &SC::node_mttr_slots, "--mttr", "node MTTR (slots)", at_least(0)},
    {"circuit_mtbf", &SC::circuit_mtbf_slots, "--circuit-mtbf",
     "circuit MTBF (slots)", at_least(0)},
    {"circuit_mttr", &SC::circuit_mttr_slots, "--circuit-mttr",
     "circuit MTTR (slots)", at_least(0)},
    {"fault_seed", &SC::fault_seed, "--fault-seed", "fault RNG seed"},
    {"epoch_slots", &SC::epoch_slots, "--epoch-slots",
     "replan every epoch; 0 = no control loop", at_least(0)},
    {"update_delay_slots", &SC::update_delay_slots, "--update-delay",
     "replan staging delay (slots)", at_least(0)},
    {"control_outages", &SC::control_outages, "--control-outages",
     "controller outages as [start, end) slot pairs", at_least(0)},
    {"controller_mtbf", &SC::controller_mtbf_slots, "--controller-mtbf",
     "controller MTBF (slots)", at_least(0)},
    {"controller_mttr", &SC::controller_mttr_slots, "--controller-mttr",
     "controller MTTR (slots)", at_least(0)},
    {"control_fault_seed", &SC::control_fault_seed, "--control-fault-seed",
     "controller fault RNG seed"},
    {"replan_apply_delay", &SC::replan_apply_delay, "--replan-apply-delay",
     "extra slots before a replan applies", at_least(0)},
    {"estimate_stale_epochs", &SC::estimate_stale_epochs,
     "--estimate-stale-epochs", "telemetry lag (epochs)", at_least(0)},
    {"estimate_noise", &SC::estimate_noise, "--estimate-noise",
     "telemetry noise amplitude", within(0, 1)},
    {"safe_mode", &SC::safe_mode, "--safe-mode",
     "data plane while the controller is down", one_of("hold|vlb")},
    {"check_invariants", &SC::check_invariants, "--check-invariants",
     "check the slot invariants every slot"},
    {"retransmit_timeout", &SC::retransmit_timeout, "--retransmit-timeout",
     "stall timeout (slots); 0 = off", at_least(0)},
    {"retransmit_max_attempts", &SC::retransmit_max_attempts,
     "--retransmit-max-attempts", "retransmissions per flow", at_least(1)},
    {"retransmit_jitter", &SC::retransmit_jitter, "--retransmit-jitter",
     "backoff jitter, fraction of the wait", within(0, 1)},
};

template <typename T>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t pos = 0;;) {
    const std::size_t end = std::min(text.find(sep, pos), text.size());
    parts.push_back(text.substr(pos, end - pos));
    if (end == text.size()) return parts;
    pos = end + 1;
  }
}

int choice_index(const char* choices, std::string_view name) {
  const std::vector<std::string_view> names = split(choices, '|');
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

// The accepted values as text; empty when any value of the type is.
std::string limits_text(const FieldLimits& l) {
  if (l.choices != nullptr) return std::string("one of ") + l.choices;
  if (l.hi == kInf) {
    if (l.lo == -kInf) return "";
    return (l.lo_open ? "> " : ">= ") + format("%g", l.lo);
  }
  return (l.lo_open ? "in (" : "in [") + format("%g", l.lo) + ", " +
         format("%g", l.hi) + "]";
}

template <typename T>
std::string value_text(const T& v, const FieldLimits& limits) {
  if constexpr (kIsList<T>) {
    std::string text;
    for (const auto& item : v)
      text += (text.empty() ? "" : ",") + value_text(item, limits);
    return text;
  } else if constexpr (std::is_enum_v<T>) {
    const std::size_t i = static_cast<std::size_t>(v);
    return std::string(split(limits.choices, '|')[i]);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return format("%g", v);
  } else {
    return v;
  }
}

template <typename T>
void write(JsonWriter& w, const T& v, const FieldLimits& limits) {
  if constexpr (kIsList<T>) {
    w.begin_array();
    for (const auto& item : v) write(w, item, limits);
    w.end_array();
  } else if constexpr (std::is_enum_v<T>) {
    w.value(value_text(v, limits));
  } else if constexpr (std::is_same_v<T, std::int32_t> ||
                       std::is_same_v<T, std::uint32_t>) {
    w.value(static_cast<std::int64_t>(v));
  } else {
    w.value(v);
  }
}

// Type-checks one JSON value into *out. Integers must fit T; enum names
// must be one of the row's choices. Errors name the field as `name`.
template <typename T>
bool decode(const JsonValue& v, const FieldLimits& limits,
            std::string_view name, T* out, std::string* error) {
  auto fail = [&](const std::string& wanted) {
    *error = std::string(name) + " must be " + wanted;
    return false;
  };
  if constexpr (kIsList<T>) {
    if (!v.is_array()) return fail("an array");
    T items;
    for (const JsonValue& item : v.items()) {
      typename T::value_type x{};
      if (!decode(item, limits, name, &x, error)) return false;
      items.push_back(x);
    }
    *out = std::move(items);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return fail("true or false");
    *out = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    if (!v.is_number() || !v.is_integer()) return fail("an integer");
    if (!std::in_range<T>(v.as_int()))
      return fail("an integer in [" +
                  std::to_string(std::numeric_limits<T>::min()) + ", " +
                  std::to_string(std::numeric_limits<T>::max()) + "] (got " +
                  std::to_string(v.as_int()) + ")");
    *out = static_cast<T>(v.as_int());
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) return fail("a number");
    *out = v.as_double();
  } else {
    if (!v.is_string()) return fail("a string");
    if constexpr (std::is_enum_v<T>) {
      const int i = choice_index(limits.choices, v.as_string());
      if (i < 0)
        return fail(limits_text(limits) + " (got " + v.as_string() + ")");
      *out = static_cast<T>(i);
    } else {
      *out = v.as_string();
    }
  }
  return true;
}

// The row's range (or choice list) check on a decoded value.
template <typename T>
bool check(const T& v, const FieldLimits& limits, std::string_view name,
           std::string* error) {
  bool ok = true;
  if constexpr (kIsList<T>) {
    for (const auto& item : v)
      if (!check(item, limits, name, error)) return false;
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    const auto d = static_cast<double>(v);
    ok = (limits.lo_open ? d > limits.lo : d >= limits.lo) && d <= limits.hi;
  } else if constexpr (std::is_same_v<T, std::string>) {
    ok = limits.choices == nullptr || choice_index(limits.choices, v) >= 0;
  }
  if (!ok) {
    const std::string wanted = limits_text(limits);
    *error = std::string(name) + " must be " +
             (wanted.empty() ? "a number" : wanted) + " (got " +
             value_text(v, limits) + ")";
  }
  return ok;
}

// A flag's value token as the JSON value decode() takes for a T member.
// Numbers must be a whole token; a list splits on commas, and an empty
// token is the empty list.
template <typename T>
std::optional<JsonValue> token_value(const std::string& token) {
  if constexpr (kIsList<T>) {
    std::vector<JsonValue> items;
    if (!token.empty()) {
      for (const std::string_view item : split(token, ',')) {
        auto v = token_value<typename T::value_type>(std::string(item));
        if (!v) return std::nullopt;
        items.push_back(std::move(*v));
      }
    }
    return JsonValue::array(std::move(items));
  } else if constexpr (std::is_arithmetic_v<T>) {
    char* end = nullptr;
    errno = 0;
    const char* s = token.c_str();
    JsonValue v = std::is_integral_v<T>
                      ? JsonValue::integer(std::strtoll(s, &end, 10))
                      : JsonValue::number(std::strtod(s, &end));
    if (token.empty() || *end != '\0' || errno == ERANGE) return std::nullopt;
    return v;
  } else {
    return JsonValue::string(token);
  }
}

template <typename T>
std::string metavar(const FieldLimits& limits) {
  if constexpr (kIsList<T>) {
    const std::string item = metavar<typename T::value_type>(limits);
    return item + "," + item + ",...";
  } else if constexpr (std::is_same_v<T, bool>) {
    return "";
  } else if constexpr (std::is_integral_v<T>) {
    return "INT";
  } else if constexpr (std::is_same_v<T, double>) {
    return "NUM";
  } else {
    return limits.choices != nullptr ? "NAME" : "STR";
  }
}

}  // namespace

std::span<const ScenarioField> scenario_fields() { return kFields; }

std::string ScenarioConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (const ScenarioField& f : kFields) {
    w.key(f.key);
    std::visit([&](auto m) { write(w, this->*m, f.limits); }, f.member);
  }
  w.end_object();
  return w.take() + "\n";
}

bool ScenarioConfig::from_json(std::string_view text, ScenarioConfig* out,
                               std::string* error) {
  JsonValue doc;
  if (!json_parse(text, &doc, error)) return false;
  if (!doc.is_object()) {
    *error = "scenario document must be a JSON object";
    return false;
  }

  ScenarioConfig cfg;  // defaults; *out untouched until full success
  for (const auto& entry : doc.fields()) {
    const std::string& key = entry.first;
    const auto f = std::find_if(std::begin(kFields), std::end(kFields),
                                [&](const ScenarioField& row) {
                                  return key == row.key;
                                });
    if (f == std::end(kFields)) {
      *error = "unknown scenario field '" + key + "'";
      return false;
    }
    const bool ok = std::visit(
        [&](auto m) {
          return decode(entry.second, f->limits, key, &(cfg.*m), error);
        },
        f->member);
    if (!ok) return false;
  }

  if (!cfg.validate(error)) return false;
  *out = std::move(cfg);
  return true;
}

bool ScenarioConfig::load_file(const std::string& path, ScenarioConfig* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  if (!from_json(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool ScenarioConfig::validate(std::string* error) const {
  std::string why;
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const ScenarioField& f : kFields) {
    const bool ok = std::visit(
        [&](auto m) { return check(this->*m, f.limits, f.key, &why); },
        f.member);
    if (!ok) return fail(why.c_str());
  }
  if ((node_mtbf_slots > 0.0 && node_mttr_slots <= 0.0) ||
      (circuit_mtbf_slots > 0.0 && circuit_mttr_slots <= 0.0))
    return fail("an MTBF needs a matching positive MTTR");
  if (!fault_script.empty() && !fault_script_path.empty())
    return fail("give fault_script or fault_script_path, not both");
  if (control_outages.size() % 2 != 0)
    return fail("control_outages must be flattened [start, end) pairs");
  for (std::size_t i = 0; i + 1 < control_outages.size(); i += 2) {
    if (control_outages[i + 1] <= control_outages[i])
      return fail("control_outages windows must satisfy 0 <= start < end");
  }
  if (controller_mtbf_slots > 0.0 && controller_mttr_slots <= 0.0)
    return fail("controller_mtbf needs a matching positive controller_mttr");
  const bool control_faults = !control_outages.empty() ||
                              controller_mtbf_slots > 0.0 ||
                              replan_apply_delay > 0 ||
                              estimate_stale_epochs > 0 ||
                              estimate_noise > 0.0;
  if (control_faults && epoch_slots <= 0)
    return fail("control-plane faults require epoch_slots > 0");
  // Fan-in is bounded by the node count, so only enforce it when the
  // incast workload is actually selected (the default fanin must not
  // invalidate small-N configs of other workloads).
  if (workload == WorkloadKind::kIncast && incast_fanin > nodes - 1)
    return fail("incast_fanin must be in [1, nodes - 1]");
  if (workload == WorkloadKind::kOversubRack && cliques < 2 &&
      rack_local_frac < 1.0)
    return fail("oversub-rack inter-rack traffic needs cliques >= 2");
  if (transport == "dctcp" && !workload_uses_flow_driver(workload))
    return fail("transport \"dctcp\" requires a flow-driver workload");
  if (max_cwnd_cells < init_cwnd_cells)
    return fail("need 1 <= init_cwnd_cells <= max_cwnd_cells");
  return true;
}

void apply_scenario_flags(ArgParser& args, ScenarioConfig* cfg,
                          std::initializer_list<std::string_view> keys) {
  for (const ScenarioField& f : kFields) {
    if (f.flag == nullptr ||
        (keys.size() > 0 &&
         std::find(keys.begin(), keys.end(), f.key) == keys.end()))
      continue;
    std::visit(
        [&](auto m) {
          using T = std::remove_cvref_t<decltype(cfg->*m)>;
          std::optional<JsonValue> v;
          if constexpr (std::is_same_v<T, bool>) {
            if (!args.get_flag(f.flag)) return;
            v = JsonValue::boolean(true);
          } else {
            const std::optional<std::string> token = args.get(f.flag);
            if (!token) return;
            v = token_value<T>(*token);
            if (!v)
              args.fail(std::string(f.flag) + " expects " +
                        metavar<T>(f.limits) + " (got '" + *token + "')");
          }
          std::string error;
          if (!decode(*v, f.limits, f.flag, &(cfg->*m), &error) ||
              !check(cfg->*m, f.limits, f.flag, &error))
            args.fail(error);
        },
        f.member);
  }
}

void print_scenario_fields(std::FILE* out) {
  const ScenarioConfig defaults;
  for (const ScenarioField& f : kFields) {
    std::visit(
        [&](auto m) {
          using T = std::remove_cvref_t<decltype(defaults.*m)>;
          std::string text = f.help;
          const std::string range = limits_text(f.limits);
          if (!range.empty()) text += "; " + range;
          const std::string def = value_text(defaults.*m, f.limits);
          if (!std::is_same_v<T, bool> && !def.empty())
            text += " (default " + def + ")";
          const std::string arg =
              std::string(f.flag != nullptr ? f.flag : "(file only)") + " " +
              metavar<T>(f.limits);
          std::fprintf(out, "  %-26s %-29s %s\n", f.key, arg.c_str(),
                       text.c_str());
        },
        f.member);
  }
}

}  // namespace sorn
