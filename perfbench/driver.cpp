// perfbench_driver: runs one workload of the end-to-end study benchmark and
// prints one JSON result line on stdout (perfbench/run.py wraps it; see
// perfbench/README.md).
//
//   perfbench_driver --workload sweep --seed 3 --seconds 20 --trace 0
//       --work-dir .bench_build/runs/x
//   perfbench_driver --workload serve_cold --port 7117 --server-pid 4242 ...
//       (a qhdl_serve instance started by run.py listens on the port)
//   perfbench_driver --workload sweep --seed 3 --ready   (set-up probe)
//   perfbench_driver --calibrate        (prints the speed factor run.py
//       rescales a set-up probe by)
//   perfbench_driver --worker-mode      (worker-pool child, spawned by the
//       pool probe of --trace 1)
//
// A "study" is the first complexity level (F = 10) of the bench-scale study
// (core::bench_scale) for one search seed of a fixed catalogue: the
// classical, BEL-hybrid and SEL-hybrid FLOPs-ordered searches with the
// preset's 0.90 accuracy threshold, pruning, candidate cap, runs, repetitions
// and epoch budget. --seed picks the order the catalogue is visited in.
//
// Workloads (the front the studies go through):
//   sweep       in-process search::run_complexity_sweep, the catalogue
//               cycled (every repeat must be byte-identical to the first);
//   serve_cold  one qhdl_serve request per family with a cache key never
//               seen before, so every unit misses the result cache and
//               trains on the server's per-job worker pool;
//   serve_hot   the same requests for the catalogue configs, primed before
//               timing: committed units replay from the result cache, and
//               only the pool's speculative candidates past each winner
//               (never cached) train again.
// Served replies are checked byte-for-byte against in-process sweeps of the
// same configs after the timed loop.
//
// With --trace 1 the driver also times each layer from outside, with
// steady_clock spans around the library calls it makes: data generation,
// FLOPs sorting, one training epoch of every candidate a study trains (the
// workspace fast path for classical models; per layer on the Module path for
// hybrid ones), checkpoint flushes, the unit frame codec, worker-pool
// start-up, and the serve request path.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "search/checkpoint.hpp"
#include "search/results.hpp"
#include "search/worker_pool.hpp"
#include "search/worker_protocol.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace {

using namespace qhdl;
using Clock = std::chrono::steady_clock;

constexpr std::array<search::Family, 3> kFamilies{
    search::Family::Classical, search::Family::HybridBel,
    search::Family::HybridSel};
/// Search seeds of the study catalogue: 42 is the bench drivers' default.
constexpr std::array<std::uint64_t, 2> kCatalogueSeeds{42, 43};
constexpr std::uint64_t kReplyTimeoutMs = 120000;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- CPU speed calibration ---------------------------------------------------
//
// The host's CPU speed drifts by up to 2x, per vCPU, in phases from about a
// second to minutes (other tenants), which a CPU-bound study feels in full.
// run.py therefore pins every process of a run to one vCPU, and a sampler
// thread runs a short fixed kernel owned by this file on that vCPU, at a low
// duty cycle, for the whole timed loop. The CPU time a study costs — in this
// process, or in the server and the worker processes it has reaped — is
// rescaled by reference / mean kernel time over that study's interval; wall
// time not covered by CPU time (waiting on polls and sockets) is not.
//
// Which kernel matters: on one pinned vCPU of a shared 4-vCPU guest, two
// probes of 40-50 in-process studies each, one in a light-load phase and one
// in a heavy one, timed candidate kernels side by side. Study wall time over
// this kernel's mean time varied by 1.3-2.3% in three of the four series
// (one per catalogue study and probe; the fourth had one outlier study).
// Sorting with ordered-map updates tracked as well in the light phase but
// not in the heavy one (7.6%), and a floating-point kernel of state-vector
// rotations and a small dense layer moved too little in both (log-log slope
// 1.6-1.9 against study time). A sampler on another vCPU, or a kernel run
// just before each study, tracked far worse.

/// About the kernel's time on a lightly loaded 2.1 GHz Sapphire Rapids vCPU.
constexpr double kCalibrationReferenceMs = 0.07;
/// Pause between the sampler's kernel runs.
constexpr auto kSamplerPause = std::chrono::milliseconds(4);
/// Kernel runs per one-off calibration (set-up probes).
constexpr std::size_t kCalibrationRuns = 9;

/// Fixed work like a training step's tensor traffic — short-lived heap
/// buffers of 8 to 207 doubles, filled and combined — in code no qhdl change
/// can touch.
double kernel_ms() {
  const auto start = Clock::now();
  double acc = 0.0;
  for (std::size_t round = 0; round < 400; ++round) {
    const std::vector<double> a(8 + (round * 37) % 200, 0.5);
    std::vector<double> b(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) b[i] = a[i] * (acc + 1.0);
    acc += b.back() * 1e-6;
  }
  volatile double sink = acc;
  (void)sink;
  return ms_since(start);
}

/// Median of kCalibrationRuns kernel runs, in ms.
double calibration_ms() {
  std::vector<double> runs;
  for (std::size_t r = 0; r < kCalibrationRuns; ++r) {
    runs.push_back(kernel_ms());
  }
  return median(runs);
}

/// Runs kernel_ms on its own thread for as long as it lives.
class SpeedSampler {
 public:
  SpeedSampler() : thread_([this] { loop(); }) {}
  ~SpeedSampler() {
    stop_ = true;
    thread_.join();
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// Mean kernel time (ms) of the runs that ended within [from, to]; 0 when
  /// none did.
  double mean_kernel_ms(Clock::time_point from, Clock::time_point to) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& [end, ms] : runs_) {
      if (end < from || end > to) continue;
      sum += ms;
      count += 1;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

 private:
  void loop() {
    while (!stop_) {
      const double ms = kernel_ms();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        runs_.emplace_back(Clock::now(), ms);
      }
      std::this_thread::sleep_for(kSamplerPause);
    }
  }

  mutable std::mutex mutex_;
  std::vector<std::pair<Clock::time_point, double>> runs_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

/// CPU time of this process, all threads, in ms.
double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// CPU time of process `pid` plus that of the children it has reaped (the
/// worker pools a server tears down after each job), in ms; 0 for pid 0.
double server_cpu_ms(int pid) {
  if (pid == 0) return 0.0;
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  const std::string stat{std::istreambuf_iterator<char>{in}, {}};
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  }
  // stat(5) fields from 3 (state) on; utime, stime, cutime and cstime are
  // fields 14 to 17, in clock ticks.
  std::istringstream fields{stat.substr(paren + 1)};
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double ticks = 0.0;
  for (int field = 14; field <= 17; ++field) {
    double value = 0.0;
    fields >> value;
    ticks += value;
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// --- inputs ----------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The index-th study of the catalogue: the bench-scale study (1500 spiral
/// points; accuracy threshold 0.90 with early stopping; prune margin 0.10;
/// up to 40 FLOPs-ordered candidates, 2 runs per model, 2 repetitions, up
/// to 80 epochs) on its first level only. Search is deterministic, so a
/// config trains the same candidates every time it runs. The catalogue is
/// fixed rather than drawn from --seed: with a real threshold a study's
/// work depends on its data and initial weights (1.8 to 3.9 s over search
/// seeds 42 to 49), which would swamp a run-to-run comparison.
search::SweepConfig study_config(std::size_t index) {
  search::SweepConfig config = core::bench_scale();
  config.feature_sizes = {config.feature_sizes.front()};
  config.search.seed = kCatalogueSeeds[index];
  config.search.threads = 1;
  return config;
}

/// Catalogue index of a run's i-th study: --seed picks where the cycle
/// starts.
std::size_t catalogue_index(std::uint64_t seed, std::size_t i) {
  return (splitmix(seed) + i) % kCatalogueSeeds.size();
}

/// A catalogue config under a result-cache key no other study of the run
/// uses. The key covers the retry budget for non-finite runs; check_sweep
/// rejects any failed run, so the budget is never drawn on and the work
/// and the sweep bytes stay those of the plain config.
search::SweepConfig fresh_key_config(std::size_t index, std::size_t study) {
  search::SweepConfig config = study_config(index);
  config.search.run_retries += 1 + study;
  return config;
}

// --- one study through a front ---------------------------------------------

struct StudyRun {
  std::array<std::string, 3> sweeps;  ///< sweep JSON per family (dumped)
  std::size_t units = 0;              ///< candidate evaluations committed
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::string error;  ///< non-empty when a request failed
};

std::size_t units_in(const util::Json& sweep) {
  std::size_t units = 0;
  const util::Json& levels = sweep.at("levels");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const util::Json& reps = levels.at(l).at("repetitions");
    for (std::size_t r = 0; r < reps.size(); ++r) {
      units += static_cast<std::size_t>(
          reps.at(r).at("candidates_trained").as_number());
    }
  }
  return units;
}

/// Structural checks on one sweep JSON against the config that made it:
/// every repetition found a winner at or above the threshold, within the
/// candidate cap, without a failed run.
std::string check_sweep(const util::Json& sweep, search::Family family,
                        const search::SweepConfig& config) {
  if (sweep.at("family").as_string() != search::family_name(family)) {
    return "wrong family " + sweep.at("family").as_string();
  }
  const util::Json& levels = sweep.at("levels");
  if (levels.size() != config.feature_sizes.size()) return "level count";
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const util::Json& level = levels.at(l);
    if (static_cast<std::size_t>(level.at("features").as_number()) !=
        config.feature_sizes[l]) {
      return "level features";
    }
    const util::Json& reps = level.at("repetitions");
    if (reps.size() != config.search.repetitions) return "repetition count";
    for (std::size_t r = 0; r < reps.size(); ++r) {
      const util::Json& rep = reps.at(r);
      const double trained = rep.at("candidates_trained").as_number();
      if (trained < 1.0 ||
          trained > static_cast<double>(config.search.max_candidates)) {
        return "candidates trained out of range";
      }
      if (!rep.contains("winner") || rep.contains("failures")) {
        return "repetition without a clean winner";
      }
      for (const char* key : {"train_accuracy", "val_accuracy"}) {
        const double accuracy = rep.at(key).as_number();
        if (!(accuracy >= config.search.accuracy_threshold &&
              accuracy <= 1.0)) {
          return "winner accuracy out of range";
        }
      }
    }
  }
  return "";
}

StudyRun run_in_process(const search::SweepConfig& config,
                        std::vector<search::SweepResult>* results = nullptr) {
  StudyRun run;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    search::SweepResult sweep =
        search::run_complexity_sweep(kFamilies[f], config);
    const util::Json json = search::sweep_to_json(sweep);
    run.sweeps[f] = json.dump();
    run.units += units_in(json);
    if (run.error.empty()) run.error = check_sweep(json, kFamilies[f], config);
    if (results != nullptr) results->push_back(std::move(sweep));
  }
  return run;
}

StudyRun run_served(std::uint16_t port, const search::SweepConfig& config) {
  StudyRun run;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    util::Json reply;
    try {
      reply = serve::round_trip(
          "127.0.0.1", port, serve::make_study_request(kFamilies[f], config),
          kReplyTimeoutMs);
    } catch (const std::exception& e) {
      run.error = std::string{"transport: "} + e.what();
      return run;
    }
    if (reply.at("type").as_string() != "result") {
      run.error = "reply: " + reply.dump();
      return run;
    }
    const util::Json& sweep = reply.at("sweep");
    run.sweeps[f] = sweep.dump();
    run.units += units_in(sweep);
    run.cache_hits +=
        static_cast<std::size_t>(reply.at("cache").at("unit_hits").as_number());
    run.cache_misses += static_cast<std::size_t>(
        reply.at("cache").at("unit_misses").as_number());
    if (run.error.empty()) run.error = check_sweep(sweep, kFamilies[f], config);
  }
  return run;
}

// --- the timed loop --------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint16_t port = 0;
  int server_pid = 0;
  std::string work_dir;
};

/// Per catalogue config, one entry per timed study.
struct ConfigSamples {
  std::vector<double> study_ms;  ///< rescaled (see above)
  std::vector<double> wall_ms;
  std::vector<double> kernel_ms;
  std::vector<double> server_cpu_ms;
};

struct LoopResult {
  std::array<ConfigSamples, kCatalogueSeeds.size()> samples;
  std::size_t studies = 0;
  std::size_t units = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::vector<std::string> problems;
};

void record_failure(LoopResult& loop, const std::string& what) {
  loop.failed += 1;
  if (loop.problems.size() < 5) loop.problems.push_back(what);
}

/// Mean over the catalogue of each config's median: every config weighs the
/// same, however many of its studies fit in the run.
double catalogue_mean(const LoopResult& loop,
                      std::vector<double> ConfigSamples::*field) {
  std::vector<double> medians;
  for (const ConfigSamples& samples : loop.samples) {
    medians.push_back(median(samples.*field));
  }
  return mean(medians);
}

/// Studies in a closed loop (one client, next study after the previous one
/// returns) until `seconds` have elapsed and every catalogue config has run
/// at least twice.
LoopResult run_loop(const Options& opt, const SpeedSampler& sampler) {
  LoopResult loop;
  const bool served = opt.workload != "sweep";
  const bool hot = opt.workload == "serve_hot";
  const bool cold = opt.workload == "serve_cold";

  // First reply per catalogue config; repeats must match it byte-for-byte.
  std::map<std::size_t, StudyRun> first;
  // Units a hot study of each config retrains (speculative, never cached).
  std::map<std::size_t, std::size_t> hot_misses;
  if (hot) {
    for (std::size_t c = 0; c < kCatalogueSeeds.size(); ++c) {
      StudyRun prime = run_served(opt.port, study_config(c));
      loop.attempted += 1;
      if (!prime.error.empty()) record_failure(loop, "prime: " + prime.error);
      first[c] = std::move(prime);
    }
  }

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const std::size_t min_studies = 2 * kCatalogueSeeds.size();
  for (std::size_t i = 0; Clock::now() < deadline || i < min_studies; ++i) {
    const std::size_t index = catalogue_index(opt.seed, i);
    const search::SweepConfig config =
        cold ? fresh_key_config(index, i) : study_config(index);
    const double server_start = server_cpu_ms(opt.server_pid);
    const double cpu_start = process_cpu_ms();
    const auto start = Clock::now();
    StudyRun run = served ? run_served(opt.port, config)
                          : run_in_process(config);
    const auto end = Clock::now();
    const double wall = std::chrono::duration<double, std::milli>(end - start)
                            .count();
    const double client_cpu = process_cpu_ms() - cpu_start;
    const double server_cpu = server_cpu_ms(opt.server_pid) - server_start;
    const double calibration = sampler.mean_kernel_ms(start, end);
    const double speed = calibration > 0.0
                             ? kCalibrationReferenceMs / calibration
                             : 1.0;
    loop.attempted += 1;
    if (!run.error.empty()) {
      record_failure(loop, "study " + std::to_string(index) + ": " + run.error);
      continue;
    }
    // Everything shares one vCPU, so the CPU times add up to at most the
    // wall (the cap absorbs clock-tick rounding).
    const double cpu = std::min(client_cpu + server_cpu, wall);
    ConfigSamples& samples = loop.samples[index];
    samples.wall_ms.push_back(wall);
    samples.kernel_ms.push_back(calibration);
    samples.server_cpu_ms.push_back(server_cpu);
    samples.study_ms.push_back(wall - cpu + cpu * speed);
    loop.studies += 1;
    loop.units += run.units;
    loop.cache_hits += run.cache_hits;
    loop.cache_misses += run.cache_misses;
    if (hot) {
      if (run.cache_hits != run.units) {
        record_failure(loop, "hot study missed a committed unit");
      }
      const auto [it, inserted] = hot_misses.emplace(index, run.cache_misses);
      if (!inserted && it->second != run.cache_misses) {
        record_failure(loop, "hot study retrained a different unit count");
      }
    }
    if (cold && (run.cache_hits != 0 || run.cache_misses < run.units)) {
      record_failure(loop, "cold study hit the result cache");
    }
    if (auto it = first.find(index); it == first.end()) {
      first[index] = std::move(run);
    } else if (it->second.sweeps != run.sweeps) {
      record_failure(loop, "study " + std::to_string(index) +
                               " differs from its first run");
    }
  }

  // Served results must equal in-process sweeps of the same config.
  if (served) {
    for (const auto& [index, reply] : first) {
      if (!reply.error.empty()) continue;
      const StudyRun local = run_in_process(study_config(index));
      if (!local.error.empty() || local.sweeps != reply.sweeps) {
        record_failure(loop, "served study " + std::to_string(index) +
                                 " differs from the in-process sweep");
      }
    }
  }
  return loop;
}

// --- per-layer spans (--trace 1) -------------------------------------------

/// Span durations by metric name.
using LayerTimes = std::map<std::string, std::vector<double>>;

std::string layer_group(const std::string& kind) {
  if (kind == "dense" || kind == "quantum") return kind;
  return "activation";  // tanh / relu / sigmoid
}

/// The shuffled mini-batches of one epoch, tail batch included, as the
/// trainer forms them.
std::vector<std::vector<std::size_t>> epoch_batches(std::size_t rows,
                                                    std::size_t batch,
                                                    util::Rng& rng) {
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(std::span<std::size_t>(order));
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t begin = 0; begin < rows; begin += batch) {
    const std::size_t end = std::min(begin + batch, rows);
    batches.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return batches;
}

/// One epoch of a classical model on the trainer's workspace fast path:
/// each fused step (dense layers, activations, loss, Adam) gets a span, and
/// so does the epoch-end accuracy pass over the train and validation sets.
void workspace_epoch(nn::TrainWorkspace& workspace,
                     const data::TrainValSplit& split,
                     const search::SweepConfig& config, util::Rng& rng,
                     LayerTimes& times) {
  nn::Adam adam{config.search.train.learning_rate};
  for (const auto& rows : epoch_batches(
           split.train.size(), config.search.train.batch_size, rng)) {
    const auto start = Clock::now();
    workspace.train_step(split.train.x, split.train.y, rows, adam);
    times["classical_step_us"].push_back(us_since(start));
  }
  const auto start = Clock::now();
  workspace.evaluate_accuracy(split.train.x, split.train.y);
  workspace.evaluate_accuracy(split.val.x, split.val.y);
  times["classical_eval_ms"].push_back(ms_since(start));
}

/// One epoch of a hybrid model on the reference Module path the trainer
/// takes for it, driving the layers one at a time so each layer call gets
/// its own span (per batch), plus the epoch-end accuracy pass.
void module_epoch(nn::Sequential& model, const data::TrainValSplit& split,
                  const search::SweepConfig& config, util::Rng& rng,
                  LayerTimes& times) {
  std::vector<std::string> groups;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    groups.push_back(layer_group(model.layer(l).info().kind));
  }
  nn::Adam adam{config.search.train.learning_rate};
  const nn::SoftmaxCrossEntropy loss;
  for (const auto& rows : epoch_batches(
           split.train.size(), config.search.train.batch_size, rng)) {
    tensor::Tensor h = nn::slice_rows(split.train.x, rows);
    std::vector<std::size_t> labels;
    for (std::size_t row : rows) labels.push_back(split.train.y[row]);

    std::map<std::string, double> fwd;
    std::map<std::string, double> bwd;
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      const auto start = Clock::now();
      h = model.layer(l).forward(h);
      fwd[groups[l]] += us_since(start);
    }
    auto start = Clock::now();
    const nn::LossResult result = loss.evaluate(h, labels);
    times["loss_us"].push_back(us_since(start));
    tensor::Tensor g = result.grad;
    for (std::size_t l = model.layer_count(); l-- > 0;) {
      const auto layer_start = Clock::now();
      g = model.layer(l).backward(g);
      bwd[groups[l]] += us_since(layer_start);
    }
    start = Clock::now();
    adam.step(model.parameters());
    model.zero_grad();
    times["optimizer_us"].push_back(us_since(start));

    times["dense_fwd_us"].push_back(fwd["dense"]);
    times["dense_bwd_us"].push_back(bwd["dense"]);
    times["activation_us"].push_back(fwd["activation"] + bwd["activation"]);
    times["quantum_fwd_us"].push_back(fwd["quantum"]);
    times["quantum_bwd_us"].push_back(bwd["quantum"]);
  }
  const auto start = Clock::now();
  nn::evaluate_accuracy(model, split.train.x, split.train.y);
  nn::evaluate_accuracy(model, split.val.x, split.val.y);
  times["hybrid_eval_ms"].push_back(ms_since(start));
}

/// Spans around the compute, persistence and codec layers, over the
/// catalogue's studies.
void trace_layers(const Options& opt, LayerTimes& times) {
  std::vector<std::pair<search::WorkUnit, search::CandidateResult>> units;
  for (std::size_t c = 0; c < kCatalogueSeeds.size(); ++c) {
    const search::SweepConfig config = study_config(c);
    const std::size_t classes = config.spiral.classes;
    const std::size_t features = config.feature_sizes.front();

    // Data generation and FLOPs ordering of the study's level.
    data::TrainValSplit split;
    for (int rep = 0; rep < 5; ++rep) {
      util::Rng rng{config.search.seed};
      const auto start = Clock::now();
      const data::Dataset dataset = search::level_dataset(features, config);
      split = data::stratified_split(
          dataset, config.search.validation_fraction, rng);
      times["data_gen_ms"].push_back(ms_since(start));
    }
    for (search::Family family : kFamilies) {
      const std::vector<search::ModelSpec> space =
          search::family_search_space(family);
      const auto start = Clock::now();
      const auto sorted =
          search::sort_by_flops(space, features, classes, config.search);
      times["flops_sort_us"].push_back(us_since(start));
    }

    // One training epoch of every candidate the study trains, on the path
    // the trainer picks for it.
    std::vector<search::SweepResult> sweeps;
    run_in_process(config, &sweeps);
    util::Rng rng{config.search.seed};
    for (const search::SweepResult& sweep : sweeps) {
      for (const search::LevelResult& level : sweep.levels) {
        for (const auto& repetition : level.search.repetitions) {
          for (const search::CandidateResult& candidate :
               repetition.evaluated) {
            auto model = search::build_from_spec(
                candidate.spec, features, classes,
                config.search.classical_activation, rng);
            auto workspace = nn::TrainWorkspace::compile(
                *model,
                std::min(config.search.train.batch_size, split.train.size()),
                std::max(split.train.size(), split.val.size()));
            if (workspace) {
              workspace_epoch(*workspace, split, config, rng, times);
            } else {
              module_epoch(*model, split, config, rng, times);
            }
          }
        }
      }
    }
    if (c != 0) continue;

    // Checkpoint I/O: flushing the manifest of one study's units, as the
    // serve result cache does at every unit boundary.
    search::StudyCheckpoint checkpoint{
        (std::filesystem::path{opt.work_dir} / "probe_manifest.json").string(),
        search::sweep_config_hash(config)};
    for (const search::SweepResult& sweep : sweeps) {
      for (const search::LevelResult& level : sweep.levels) {
        for (std::size_t r = 0; r < level.search.repetitions.size(); ++r) {
          const auto& evaluated = level.search.repetitions[r].evaluated;
          for (std::size_t k = 0; k < evaluated.size(); ++k) {
            search::WorkUnit unit;
            unit.key = {search::family_name(sweep.family), level.features, r,
                        k};
            unit.spec = evaluated[k].spec;
            unit.streams.emplace_back(config.search.seed + k);
            checkpoint.record(unit.key, evaluated[k]);
            units.emplace_back(std::move(unit), evaluated[k]);
          }
        }
      }
    }
    for (int rep = 0; rep < 20; ++rep) {
      const auto start = Clock::now();
      checkpoint.flush();
      times["checkpoint_flush_ms"].push_back(ms_since(start));
    }
  }

  // Frame codec: a unit frame out and its result frame back, encoded and
  // decoded the way supervisor and worker exchange them.
  for (const auto& [unit, result] : units) {
    for (int rep = 0; rep < 20; ++rep) {
      const auto start = Clock::now();
      util::Json unit_frame = util::Json::object();
      unit_frame["type"] = "unit";
      unit_frame["unit"] = search::work_unit_to_json(unit);
      util::Json result_frame = util::Json::object();
      result_frame["type"] = "result";
      result_frame["key"] = unit.key.to_string();
      result_frame["result"] = search::candidate_result_to_json(result);
      search::FrameReader reader;
      for (const util::Json* frame : {&unit_frame, &result_frame}) {
        const std::string wire = search::frame_wire(frame->dump());
        reader.feed(wire.data(), wire.size());
      }
      const util::Json unit_back = util::Json::parse(*reader.next());
      const util::Json result_back = util::Json::parse(*reader.next());
      const search::WorkUnit decoded =
          search::work_unit_from_json(unit_back.at("unit"));
      const search::CandidateResult decoded_result =
          search::candidate_result_from_json(result_back.at("result"));
      times["frame_codec_us"].push_back(us_since(start));
      if (decoded.spec.to_string() != unit.spec.to_string() ||
          decoded_result.avg_best_val_accuracy !=
              result.avg_best_val_accuracy) {
        throw std::runtime_error("frame codec round trip changed a unit");
      }
    }
  }
}

/// Spans around the serve request path and per-job pool start-up (every
/// workload: the serve layers are timed on their own, idle server).
void trace_serve(const Options& opt, LayerTimes& times) {
  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  for (int rep = 0; rep < 30; ++rep) {
    const auto start = Clock::now();
    const util::Json reply =
        serve::round_trip("127.0.0.1", opt.port, ping, kReplyTimeoutMs);
    times["ping_ms"].push_back(ms_since(start));
    if (reply.at("type").as_string() != "pong") {
      throw std::runtime_error("ping answered " + reply.dump());
    }
  }
  // A job with no work: admission queue, executor hand-off, reply wait.
  util::Json noop = util::Json::object();
  noop["type"] = "sleep";
  noop["ms"] = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto start = Clock::now();
    const util::Json reply =
        serve::round_trip("127.0.0.1", opt.port, noop, kReplyTimeoutMs);
    times["noop_job_ms"].push_back(ms_since(start));
    if (reply.at("type").as_string() != "result") {
      throw std::runtime_error("no-op job answered " + reply.dump());
    }
  }
  // The worker pool a serve study job constructs and tears down.
  search::WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    {
      search::WorkerPool pool{study_config(0), pool_config};
      if (pool.degraded()) {
        throw std::runtime_error("worker pool degraded: " +
                                 pool.degraded_reason());
      }
    }
    times["pool_spawn_ms"].push_back(ms_since(start));
  }
}

// --- output ----------------------------------------------------------------

void put_metric(util::Json& metrics, const std::string& name, double value,
                const std::string& unit) {
  util::Json metric = util::Json::object();
  metric["value"] = value;
  metric["unit"] = unit;
  metrics[name] = std::move(metric);
}

int run_workload(const Options& opt) {
  LoopResult loop;
  {
    const SpeedSampler sampler;
    loop = run_loop(opt, sampler);
  }
  for (const std::string& problem : loop.problems) {
    std::fprintf(stderr, "perfbench_driver: %s\n", problem.c_str());
  }

  util::Json metrics = util::Json::object();
  const double study_ms = catalogue_mean(loop, &ConfigSamples::study_ms);
  const double wall_ms = catalogue_mean(loop, &ConfigSamples::wall_ms);
  const double kernel = catalogue_mean(loop, &ConfigSamples::kernel_ms);
  const double server_cpu = catalogue_mean(loop, &ConfigSamples::server_cpu_ms);
  std::fprintf(stderr,
               "perfbench_driver: %s %zu studies, %.3f ms (wall %.3f ms, "
               "server cpu %.1f ms, calibration %.4f ms), %zu units, %zu "
               "hits / %zu misses\n",
               opt.workload.c_str(), loop.studies, study_ms, wall_ms,
               server_cpu, kernel, loop.units, loop.cache_hits,
               loop.cache_misses);
  if (!opt.trace) {
    put_metric(metrics, "study_ms", study_ms, "ms");
  } else {
    // The raw figures behind study_ms.
    put_metric(metrics, "study_wall_ms", wall_ms, "ms");
    put_metric(metrics, "calibration_kernel_ms", kernel, "ms");
    LayerTimes times;
    trace_layers(opt, times);
    trace_serve(opt, times);
    // Medians for the repeated single-call spans; means for the per-batch
    // and per-epoch training spans, which average over the candidates a
    // study trains.
    for (const char* name : {"data_gen_ms", "checkpoint_flush_ms", "ping_ms",
                             "noop_job_ms", "pool_spawn_ms"}) {
      put_metric(metrics, name, median(times[name]), "ms");
    }
    for (const char* name : {"flops_sort_us", "frame_codec_us"}) {
      put_metric(metrics, name, median(times[name]), "us");
    }
    for (const char* name :
         {"classical_step_us", "dense_fwd_us", "dense_bwd_us",
          "activation_us", "quantum_fwd_us", "quantum_bwd_us", "loss_us",
          "optimizer_us"}) {
      put_metric(metrics, name, mean(times[name]), "us");
    }
    for (const char* name : {"classical_eval_ms", "hybrid_eval_ms"}) {
      put_metric(metrics, name, mean(times[name]), "ms");
    }
    const double per_study =
        loop.studies == 0 ? 0.0 : 1.0 / static_cast<double>(loop.studies);
    put_metric(metrics, "units_per_study",
               static_cast<double>(loop.units) * per_study, "count");
    put_metric(metrics, "cache_hits_per_study",
               static_cast<double>(loop.cache_hits) * per_study, "count");
    put_metric(metrics, "cache_misses_per_study",
               static_cast<double>(loop.cache_misses) * per_study, "count");
  }

  bool sampled = true;
  for (const ConfigSamples& samples : loop.samples) {
    sampled = sampled && !samples.study_ms.empty();
  }
  util::Json out = util::Json::object();
  out["correct"] = loop.failed == 0 && sampled;
  out["attempted"] = loop.attempted;
  out["failed"] = loop.failed;
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Everything run_workload needs before its first study.
void validate(const Options& opt) {
  if (opt.workload != "sweep" && opt.workload != "serve_cold" &&
      opt.workload != "serve_hot") {
    throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
  }
  if (opt.workload != "sweep" && (opt.port == 0 || opt.server_pid == 0)) {
    throw std::invalid_argument(
        "--workload " + opt.workload +
        " needs --port and --server-pid of a running qhdl_serve");
  }
  if (opt.trace && opt.port == 0) {
    throw std::invalid_argument(
        "--trace 1 needs --port of a running qhdl_serve for the serve spans");
  }
  std::filesystem::create_directories(opt.work_dir);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker pools re-exec this binary; dispatch before CLI parsing.
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--worker-mode") {
      return search::worker_main();
    }
  }
  util::Cli cli{"perfbench_driver",
                "Run one workload of the end-to-end study benchmark"};
  cli.add_string("workload", "sweep", "sweep | serve_cold | serve_hot");
  cli.add_int("seed", 1, "Workload seed; picks the catalogue's visiting order");
  cli.add_double("seconds", 10.0, "Length of the timed loop");
  cli.add_int("trace", 0, "1 = report per-layer spans instead of end-to-end");
  cli.add_int("port", 0,
              "Port of the qhdl_serve instance (serve_* and --trace 1)");
  cli.add_int("server-pid", 0,
              "Pid of that qhdl_serve, whose CPU time a study counts "
              "(serve_* only)");
  cli.add_string("work-dir", ".bench_build/work", "Scratch directory");
  cli.add_flag("ready",
               "Set-up probe: do the start-up work, print 'ready', then the "
               "speed factor");
  cli.add_flag("calibrate",
               "Print the speed factor (reference / measured kernel time)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    util::set_log_level(util::LogLevel::Warn);
    if (cli.flag("calibrate")) {
      std::printf("%.6f\n", kCalibrationReferenceMs / calibration_ms());
      return 0;
    }
    Options opt;
    opt.workload = cli.get_string("workload");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_int("trace") != 0;
    opt.port = static_cast<std::uint16_t>(cli.get_int("port"));
    opt.server_pid = static_cast<int>(cli.get_int("server-pid"));
    opt.work_dir = cli.get_string("work-dir");
    validate(opt);
    if (cli.flag("ready")) {
      // run.py stops the set-up clock at this line and rescales the set-up
      // time by the speed factor printed after it.
      std::printf("ready\n");
      std::fflush(stdout);
      std::printf("%.6f\n", kCalibrationReferenceMs / calibration_ms());
      return 0;
    }
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: error: %s\n", e.what());
    return 1;
  }
}
