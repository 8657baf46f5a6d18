#include "search/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "qnn/ansatz.hpp"

namespace qhdl::search {

namespace {

/// Shortest round-tripping decimal form — the same formatting the JSON
/// serializer uses, so a hashed double and its manifest encoding agree.
std::string canonical_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

util::Json model_spec_to_json(const ModelSpec& spec) {
  util::Json json = util::Json::object();
  if (spec.family == ModelSpec::Family::Classical) {
    json["family"] = "classical";
    json["hidden"] = util::Json::array_of(spec.classical.hidden);
  } else {
    json["family"] = "hybrid";
    json["qubits"] = spec.hybrid.qubits;
    json["depth"] = spec.hybrid.depth;
    json["ansatz"] = qnn::ansatz_name(spec.hybrid.ansatz);
  }
  return json;
}

ModelSpec model_spec_from_json(const util::Json& json) {
  const std::string& family = json.at("family").as_string();
  if (family == "classical") {
    std::vector<std::size_t> hidden;
    const util::Json& widths = json.at("hidden");
    hidden.reserve(widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      hidden.push_back(static_cast<std::size_t>(widths.at(i).as_number()));
    }
    return ModelSpec::make_classical(std::move(hidden));
  }
  if (family == "hybrid") {
    return ModelSpec::make_hybrid(
        static_cast<std::size_t>(json.at("qubits").as_number()),
        static_cast<std::size_t>(json.at("depth").as_number()),
        qnn::ansatz_from_name(json.at("ansatz").as_string()));
  }
  throw std::runtime_error("checkpoint: unknown model family '" + family +
                           "'");
}

std::string UnitKey::to_string() const {
  return family + "/f" + std::to_string(features) + "/r" +
         std::to_string(repetition) + "/c" + std::to_string(candidate);
}

util::Json candidate_result_to_json(const CandidateResult& result) {
  util::Json json = util::Json::object();
  json["spec"] = model_spec_to_json(result.spec);
  json["avg_best_train_accuracy"] = result.avg_best_train_accuracy;
  json["avg_best_val_accuracy"] = result.avg_best_val_accuracy;
  json["flops"] = result.flops;
  json["flops_forward"] = result.flops_forward;
  json["parameter_count"] = result.parameter_count;
  json["runs"] = result.runs;
  json["failed_runs"] = result.failed_runs;
  json["meets_threshold"] = result.meets_threshold;
  if (!result.failures.empty()) {
    util::Json failures = util::Json::array();
    for (const RunFailure& failure : result.failures) {
      util::Json entry = util::Json::object();
      entry["run"] = failure.run;
      entry["attempt"] = failure.attempt;
      entry["epoch"] = failure.epoch;
      entry["cause"] = failure.cause;
      failures.push_back(std::move(entry));
    }
    json["failures"] = std::move(failures);
  }
  return json;
}

CandidateResult candidate_result_from_json(const util::Json& json) {
  CandidateResult result;
  result.spec = model_spec_from_json(json.at("spec"));
  result.avg_best_train_accuracy =
      json.at("avg_best_train_accuracy").as_number();
  result.avg_best_val_accuracy = json.at("avg_best_val_accuracy").as_number();
  result.flops = json.at("flops").as_number();
  result.flops_forward = json.at("flops_forward").as_number();
  result.parameter_count =
      static_cast<std::size_t>(json.at("parameter_count").as_number());
  result.runs = static_cast<std::size_t>(json.at("runs").as_number());
  result.failed_runs =
      static_cast<std::size_t>(json.at("failed_runs").as_number());
  result.meets_threshold = json.at("meets_threshold").as_bool();
  if (json.contains("failures")) {
    const util::Json& failures = json.at("failures");
    result.failures.reserve(failures.size());
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const util::Json& entry = failures.at(i);
      RunFailure failure;
      failure.run = static_cast<std::size_t>(entry.at("run").as_number());
      failure.attempt =
          static_cast<std::size_t>(entry.at("attempt").as_number());
      failure.epoch = static_cast<std::size_t>(entry.at("epoch").as_number());
      failure.cause = entry.at("cause").as_string();
      result.failures.push_back(std::move(failure));
    }
  }
  return result;
}

StudyCheckpoint::StudyCheckpoint(std::string path, std::string config_hash,
                                 util::Counter* hits, util::Counter* misses)
    : path_(std::move(path)),
      hash_(std::move(config_hash)),
      hits_(hits),
      misses_(misses) {}

std::size_t StudyCheckpoint::load() {
  std::lock_guard<std::mutex> lock(mutex_);
  units_.clear();
  if (path_.empty() || !std::filesystem::exists(path_)) return 0;
  util::Json manifest;
  try {
    manifest = util::Json::parse_file(path_);
  } catch (const std::exception& e) {
    throw std::runtime_error("checkpoint: corrupt manifest at " + path_ +
                             ": " + e.what());
  }
  try {
    const auto version =
        static_cast<std::size_t>(manifest.at("version").as_number());
    if (version != 1) {
      throw std::runtime_error("unsupported manifest version " +
                               std::to_string(version));
    }
    const std::string& stored = manifest.at("config_hash").as_string();
    if (stored != hash_) {
      throw std::runtime_error(
          "stale checkpoint: manifest config_hash " + stored +
          " does not match the current configuration's " + hash_ +
          " (different protocol, seeds, or dataset); delete " + path_ +
          " or pass --fresh to start over");
    }
    for (const auto& [key, value] : manifest.at("units").object_items()) {
      // Eagerly validate each record so a resume fails up front, not midway
      // through the sweep; the Json itself is what we store and replay.
      (void)candidate_result_from_json(value);
      units_.emplace(key, value);
    }
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error("checkpoint: corrupt manifest at " + path_ +
                             ": " + e.what());
  }
  return units_.size();
}

std::optional<CandidateResult> StudyCheckpoint::find(
    const UnitKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = units_.find(key.to_string());
  if (it == units_.end()) {
    if (misses_ != nullptr) misses_->add();
    return std::nullopt;
  }
  if (hits_ != nullptr) hits_->add();
  return candidate_result_from_json(it->second);
}

void StudyCheckpoint::record(const UnitKey& key,
                             const CandidateResult& result) {
  util::Json json = candidate_result_to_json(result);
  std::lock_guard<std::mutex> lock(mutex_);
  units_[key.to_string()] = std::move(json);
  ++recorded_;
}

void StudyCheckpoint::flush() {
  if (path_.empty()) return;  // memory-only checkpoint
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  util::Json manifest = util::Json::object();
  manifest["version"] = std::size_t{1};
  manifest["config_hash"] = hash_;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (recorded_ == flushed_) return;  // nothing new since the last write
    generation = recorded_;
    util::Json units = util::Json::object();
    for (const auto& [key, value] : units_) units[key] = value;
    manifest["units"] = std::move(units);
  }
  manifest.write_file(path_);  // throws on failure: flushed_ stays behind
  std::lock_guard<std::mutex> lock(mutex_);
  flushed_ = generation;
}

std::size_t StudyCheckpoint::completed_units() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return units_.size();
}

std::string sweep_config_hash(const SweepConfig& config) {
  // Canonical field dump: every result-affecting knob, labelled so that two
  // fields can never alias by concatenation. threads/lookahead are omitted
  // deliberately — results are invariant in them (DESIGN.md §7), so a resume
  // may use a different parallelism than the original run.
  std::string canon;
  canon.reserve(1024);
  canon += "features:";
  for (std::size_t f : config.feature_sizes) {
    canon += std::to_string(f);
    canon += ',';
  }
  canon += ";spiral:" + std::to_string(config.spiral.points) + ',' +
           std::to_string(config.spiral.classes) + ',' +
           canonical_double(config.spiral.turns) + ',' +
           canonical_double(config.spiral.radial_noise);
  canon += ";geometry:" + std::to_string(static_cast<int>(config.geometry));
  canon += ";dataset_seed:" + std::to_string(config.dataset_seed);
  const SearchConfig& search = config.search;
  canon += ";search:" + canonical_double(search.accuracy_threshold) + ',' +
           std::to_string(search.runs_per_model) + ',' +
           std::to_string(search.repetitions) + ',' +
           canonical_double(search.validation_fraction) + ',' +
           std::to_string(static_cast<int>(search.classical_activation)) +
           ',' + std::to_string(search.seed) + ',' +
           canonical_double(search.prune_margin) + ',' +
           std::to_string(search.max_candidates) + ',' +
           std::to_string(search.run_retries);
  const nn::TrainConfig& train = search.train;
  canon += ";train:" + std::to_string(train.epochs) + ',' +
           std::to_string(train.batch_size) + ',' +
           canonical_double(train.learning_rate) + ',' +
           std::to_string(train.finite_guard ? 1 : 0) + ',' +
           canonical_double(train.early_stop_accuracy) + ',' +
           std::to_string(train.shuffle ? 1 : 0) + ',' +
           std::to_string(train.patience);
  const flops::CostModel& cost = search.cost_model;
  canon += ";cost:";
  for (double value :
       {cost.matmul_mac, cost.bias_per_element, cost.activation_forward,
        cost.activation_backward, cost.softmax_forward,
        cost.gate_per_amplitude, cost.rotation_setup,
        cost.entangler_per_amplitude, cost.expval_per_amplitude,
        cost.observable_apply_per_amplitude,
        cost.inner_product_per_amplitude}) {
    canon += canonical_double(value);
    canon += ',';
  }

  // FNV-1a 64-bit over the canonical string.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : canon) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace qhdl::search
