#include "search/worker_protocol.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <unistd.h>
#endif

#include "flops/profiler.hpp"
#include "util/backend_registry.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace qhdl::search {

// --- framing --------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

bool write_frame(int fd, const std::string& payload) {
  const std::string wire = frame_wire(payload);
  std::size_t written = 0;
  while (written < wire.size()) {
    const ssize_t n =
        ::write(fd, wire.data() + written, wire.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/EBADF: the peer is gone
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

#else

bool write_frame(int, const std::string&) { return false; }

#endif

std::string frame_wire(const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("refusing to send oversized frame (" +
                        std::to_string(payload.size()) + " bytes exceeds " +
                        std::to_string(kMaxFrameBytes) + "-byte limit)");
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  char frame_header[4] = {
      static_cast<char>((length >> 24) & 0xff),
      static_cast<char>((length >> 16) & 0xff),
      static_cast<char>((length >> 8) & 0xff),
      static_cast<char>(length & 0xff),
  };
  std::string wire{frame_header, 4};
  wire += payload;
  return wire;
}

void FrameReader::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t length =
      (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
  if (length > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte limit (corrupt stream)");
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) {
    return std::nullopt;
  }
  std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return payload;
}

std::string FrameReader::pending_description() const {
  if (buffer_.empty()) return "";
  if (buffer_.size() < 4) {
    return std::to_string(buffer_.size()) + " of 4 header bytes";
  }
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t length =
      (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
  return std::to_string(buffer_.size() - 4) + " of " +
         std::to_string(length) + " payload bytes";
}

#if defined(__unix__) || defined(__APPLE__)

FrameReadStatus read_frame(int fd, FrameReader& reader,
                           const util::Deadline& deadline,
                           std::string* payload) {
  char buffer[4096];
  while (true) {
    if (auto frame = reader.next()) {  // may throw on a garbage length
      *payload = std::move(*frame);
      return FrameReadStatus::Frame;
    }
    util::throw_if_interrupted();
    if (deadline.expired()) return FrameReadStatus::Timeout;

    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const std::uint64_t remaining = deadline.remaining_ms();
    const int timeout = static_cast<int>(remaining < 100 ? remaining : 100);
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string{"poll failed during frame read: "} +
                          std::strerror(errno));
    }
    if (ready == 0) continue;  // slice elapsed; loop re-checks the deadline

    const auto mode = util::FaultInjector::instance().on_socket_read();
    if (mode == util::SocketFaultMode::Slow) {
      // A slow-loris peer: stall without consuming anything so the
      // deadline, not the peer, bounds the wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      continue;
    }
    ssize_t n;
    if (mode == util::SocketFaultMode::Disconnect) {
      n = 0;  // emulate the peer vanishing
    } else {
      const std::size_t cap =
          mode == util::SocketFaultMode::ShortRead ? 1 : sizeof(buffer);
      n = ::read(fd, buffer, cap);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        n = 0;  // reset counts as a disconnect, handled below
      } else {
        throw ProtocolError(std::string{"read failed during frame read: "} +
                            std::strerror(errno));
      }
    }
    if (n == 0) {
      if (reader.mid_frame()) {
        throw ProtocolError("truncated frame: peer closed with " +
                            reader.pending_description() + " received");
      }
      return FrameReadStatus::Eof;
    }
    reader.feed(buffer, static_cast<std::size_t>(n));
  }
}

#else

FrameReadStatus read_frame(int, FrameReader&, const util::Deadline&,
                           std::string*) {
  return FrameReadStatus::Eof;
}

#endif

// --- JSON codecs ----------------------------------------------------------

namespace {

/// util::Json numbers are doubles; 64-bit seeds ride as decimal strings so
/// every bit survives the round trip.
util::Json u64_to_json(std::uint64_t value) {
  return util::Json{std::to_string(value)};
}

std::uint64_t u64_from_json(const util::Json& json) {
  return std::stoull(json.as_string());
}

std::string geometry_name(BaseGeometry geometry) {
  return geometry == BaseGeometry::Spiral ? "spiral" : "rings";
}

BaseGeometry geometry_from_name(const std::string& name) {
  if (name == "spiral") return BaseGeometry::Spiral;
  if (name == "rings") return BaseGeometry::Rings;
  throw ProtocolError("unknown geometry '" + name + "'");
}

std::string activation_name(qnn::Activation activation) {
  return activation == qnn::Activation::Tanh ? "tanh" : "relu";
}

qnn::Activation activation_from_name(const std::string& name) {
  if (name == "tanh") return qnn::Activation::Tanh;
  if (name == "relu") return qnn::Activation::ReLU;
  throw ProtocolError("unknown activation '" + name + "'");
}

}  // namespace

util::Json sweep_config_to_json(const SweepConfig& config) {
  util::Json json = util::Json::object();
  json["feature_sizes"] = util::Json::array_of(config.feature_sizes);
  util::Json spiral = util::Json::object();
  spiral["points"] = config.spiral.points;
  spiral["classes"] = config.spiral.classes;
  spiral["turns"] = config.spiral.turns;
  spiral["radial_noise"] = config.spiral.radial_noise;
  json["spiral"] = std::move(spiral);
  json["geometry"] = geometry_name(config.geometry);
  json["dataset_seed"] = u64_to_json(config.dataset_seed);

  const SearchConfig& search = config.search;
  util::Json s = util::Json::object();
  s["accuracy_threshold"] = search.accuracy_threshold;
  s["runs_per_model"] = search.runs_per_model;
  s["repetitions"] = search.repetitions;
  s["validation_fraction"] = search.validation_fraction;
  s["classical_activation"] = activation_name(search.classical_activation);
  s["seed"] = u64_to_json(search.seed);
  s["prune_margin"] = search.prune_margin;
  s["max_candidates"] = search.max_candidates;
  s["threads"] = search.threads;
  s["lookahead"] = search.lookahead;
  s["run_retries"] = search.run_retries;

  const nn::TrainConfig& train = search.train;
  util::Json t = util::Json::object();
  t["epochs"] = train.epochs;
  t["batch_size"] = train.batch_size;
  t["learning_rate"] = train.learning_rate;
  t["finite_guard"] = train.finite_guard;
  t["early_stop_accuracy"] = train.early_stop_accuracy;
  t["shuffle"] = train.shuffle;
  t["patience"] = train.patience;
  // train.on_epoch is a process-local callback and cannot cross the wire.
  s["train"] = std::move(t);

  const flops::CostModel& cost = search.cost_model;
  util::Json c = util::Json::object();
  c["matmul_mac"] = cost.matmul_mac;
  c["bias_per_element"] = cost.bias_per_element;
  c["activation_forward"] = cost.activation_forward;
  c["activation_backward"] = cost.activation_backward;
  c["softmax_forward"] = cost.softmax_forward;
  c["gate_per_amplitude"] = cost.gate_per_amplitude;
  c["rotation_setup"] = cost.rotation_setup;
  c["entangler_per_amplitude"] = cost.entangler_per_amplitude;
  c["expval_per_amplitude"] = cost.expval_per_amplitude;
  c["observable_apply_per_amplitude"] = cost.observable_apply_per_amplitude;
  c["inner_product_per_amplitude"] = cost.inner_product_per_amplitude;
  s["cost_model"] = std::move(c);

  json["search"] = std::move(s);
  return json;
}

SweepConfig sweep_config_from_json(const util::Json& json) {
  SweepConfig config;
  config.feature_sizes.clear();
  const util::Json& sizes = json.at("feature_sizes");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    config.feature_sizes.push_back(sizes.at(i).as_count("feature_sizes"));
  }
  const util::Json& spiral = json.at("spiral");
  config.spiral.points = spiral.count_at("points");
  config.spiral.classes = spiral.count_at("classes");
  config.spiral.turns = spiral.at("turns").as_number();
  config.spiral.radial_noise = spiral.at("radial_noise").as_number();
  config.geometry = geometry_from_name(json.at("geometry").as_string());
  config.dataset_seed = u64_from_json(json.at("dataset_seed"));

  const util::Json& s = json.at("search");
  SearchConfig& search = config.search;
  search.accuracy_threshold = s.at("accuracy_threshold").as_number();
  search.runs_per_model = s.count_at("runs_per_model");
  search.repetitions = s.count_at("repetitions");
  search.validation_fraction = s.at("validation_fraction").as_number();
  search.classical_activation =
      activation_from_name(s.at("classical_activation").as_string());
  search.seed = u64_from_json(s.at("seed"));
  search.prune_margin = s.at("prune_margin").as_number();
  search.max_candidates = s.count_at("max_candidates");
  search.threads = s.count_at("threads");
  search.lookahead = s.count_at("lookahead");
  search.run_retries = s.count_at("run_retries");

  const util::Json& t = s.at("train");
  nn::TrainConfig& train = search.train;
  train.epochs = t.count_at("epochs");
  train.batch_size = t.count_at("batch_size");
  train.learning_rate = t.at("learning_rate").as_number();
  train.finite_guard = t.at("finite_guard").as_bool();
  train.early_stop_accuracy = t.at("early_stop_accuracy").as_number();
  train.shuffle = t.at("shuffle").as_bool();
  train.patience = t.count_at("patience");

  const util::Json& c = s.at("cost_model");
  flops::CostModel& cost = search.cost_model;
  cost.matmul_mac = c.at("matmul_mac").as_number();
  cost.bias_per_element = c.at("bias_per_element").as_number();
  cost.activation_forward = c.at("activation_forward").as_number();
  cost.activation_backward = c.at("activation_backward").as_number();
  cost.softmax_forward = c.at("softmax_forward").as_number();
  cost.gate_per_amplitude = c.at("gate_per_amplitude").as_number();
  cost.rotation_setup = c.at("rotation_setup").as_number();
  cost.entangler_per_amplitude = c.at("entangler_per_amplitude").as_number();
  cost.expval_per_amplitude = c.at("expval_per_amplitude").as_number();
  cost.observable_apply_per_amplitude =
      c.at("observable_apply_per_amplitude").as_number();
  cost.inner_product_per_amplitude =
      c.at("inner_product_per_amplitude").as_number();
  return config;
}

util::Json rng_to_json(const util::Rng& rng) {
  const util::Rng::Snapshot snap = rng.snapshot();
  util::Json json = util::Json::object();
  util::Json state = util::Json::array();
  for (std::uint64_t word : snap.state) state.push_back(u64_to_json(word));
  json["state"] = std::move(state);
  json["has_cached_normal"] = snap.has_cached_normal;
  json["cached_normal"] = snap.cached_normal;
  return json;
}

util::Rng rng_from_json(const util::Json& json) {
  util::Rng::Snapshot snap;
  const util::Json& state = json.at("state");
  if (state.size() != snap.state.size()) {
    throw ProtocolError("rng snapshot must have " +
                        std::to_string(snap.state.size()) + " state words");
  }
  for (std::size_t i = 0; i < snap.state.size(); ++i) {
    snap.state[i] = u64_from_json(state.at(i));
  }
  snap.has_cached_normal = json.at("has_cached_normal").as_bool();
  snap.cached_normal = json.at("cached_normal").as_number();
  return util::Rng::restore(snap);
}

util::Json work_unit_to_json(const WorkUnit& unit) {
  util::Json json = util::Json::object();
  util::Json key = util::Json::object();
  key["family"] = unit.key.family;
  key["features"] = unit.key.features;
  key["repetition"] = unit.key.repetition;
  key["candidate"] = unit.key.candidate;
  json["key"] = std::move(key);
  json["spec"] = model_spec_to_json(unit.spec);
  util::Json streams = util::Json::array();
  for (const util::Rng& stream : unit.streams) {
    streams.push_back(rng_to_json(stream));
  }
  json["streams"] = std::move(streams);
  return json;
}

WorkUnit work_unit_from_json(const util::Json& json) {
  WorkUnit unit;
  const util::Json& key = json.at("key");
  unit.key.family = key.at("family").as_string();
  unit.key.features = key.count_at("features");
  unit.key.repetition = key.count_at("repetition");
  unit.key.candidate = key.count_at("candidate");
  unit.spec = model_spec_from_json(json.at("spec"));
  const util::Json& streams = json.at("streams");
  unit.streams.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    unit.streams.push_back(rng_from_json(streams.at(i)));
  }
  return unit;
}

util::Json registration_to_json(const WorkerRegistration& registration) {
  util::Json json = util::Json::object();
  json["type"] = "register";
  json["version"] = registration.version;
  json["backend"] = registration.backend;
  json["slots"] = registration.slots;
  json["slot"] = registration.slot;
  json["pid"] = registration.pid;
  return json;
}

WorkerRegistration registration_from_json(const util::Json& json) {
  WorkerRegistration registration;
  try {
    if (json.at("type").as_string() != "register") {
      throw std::runtime_error("frame type is not 'register'");
    }
    // A version past INT_MAX saturates, so it is rejected as a mismatch.
    registration.version = static_cast<int>(std::min<std::uint64_t>(
        json.count_at("version"), std::numeric_limits<int>::max()));
    registration.backend = json.at("backend").as_string();
    registration.slots = json.count_at("slots");
    registration.slot = json.count_at("slot");
    registration.pid = static_cast<long>(json.count_at("pid"));
  } catch (const std::exception& error) {
    throw ProtocolError(std::string{"bad register frame: "} + error.what());
  }
  return registration;
}

std::uint64_t backoff_with_jitter_ms(std::uint64_t initial_ms,
                                     std::uint64_t max_ms,
                                     std::size_t failures, std::uint64_t seed,
                                     std::uint64_t salt) {
  if (failures == 0) failures = 1;
  std::uint64_t base = initial_ms == 0 ? 1 : initial_ms;
  for (std::size_t i = 1; i < failures && base < max_ms; ++i) base *= 2;
  if (max_ms > 0 && base > max_ms) base = max_ms;
  // SplitMix64 over (seed, salt, failures): deterministic, decorrelated
  // across salts so simultaneous losers fan out instead of stampeding.
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(failures) << 32);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const std::uint64_t half = base / 2;
  return base - half + (half == 0 ? 0 : x % (half + 1));
}

bool parse_host_port(const std::string& text, std::string* host,
                     std::uint16_t* port) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return false;
  }
  const std::string digits = text.substr(colon + 1);
  if (digits.find_first_not_of("0123456789") != std::string::npos ||
      digits.size() > 5) {
    return false;
  }
  const unsigned long value = std::stoul(digits);
  if (value > 65535) return false;
  *host = text.substr(0, colon);
  *port = static_cast<std::uint16_t>(value);
  return true;
}

// --- unit evaluation ------------------------------------------------------

CandidateResult evaluate_unit(const SweepConfig& config, const WorkUnit& unit,
                              const util::CancelToken* cancel) {
  // repetition_data serves only the config's own levels: the width sizes
  // the dataset, so a peer cannot ask for an arbitrarily wide one.
  const std::shared_ptr<const RepetitionData> data = repetition_data(
      config, unit.key.features, unit.key.repetition, cancel);
  // evaluate_candidate validates the stream count against runs_per_model.
  std::vector<util::Rng> streams = unit.streams;
  return evaluate_candidate(unit.spec, data->split, config.search, streams);
}

CandidateResult quarantined_unit_result(
    const SweepConfig& config, const WorkUnit& unit,
    const std::vector<std::string>& attempt_causes) {
  CandidateResult result;
  result.spec = unit.spec;
  // Analytic metadata needs no training and stays informative in the
  // quarantine record.
  const flops::FlopsReport report = flops::profile_layers(
      spec_layer_infos(unit.spec, unit.key.features, config.spiral.classes,
                       config.search.classical_activation),
      config.search.cost_model);
  result.flops = report.total();
  result.flops_forward = report.forward_total;
  result.parameter_count = report.parameter_count;
  // runs = 0 keeps the unit out of every accuracy mean, exactly like a unit
  // whose every run tripped the non-finite guard.
  result.runs = 0;
  result.failed_runs = config.search.runs_per_model;
  result.meets_threshold = false;
  result.failures.reserve(attempt_causes.size());
  for (std::size_t attempt = 0; attempt < attempt_causes.size(); ++attempt) {
    RunFailure failure;
    failure.run = 0;
    failure.attempt = attempt;
    failure.epoch = 0;
    failure.cause = "worker:" + attempt_causes[attempt];
    result.failures.push_back(std::move(failure));
  }
  return result;
}

// --- worker entry point ---------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Serializes one worker output stream: the heartbeat thread and the unit
/// loop both emit frames on it (stdout for pipe workers, the connected
/// socket for TCP daemons).
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}

  bool send(const util::Json& payload) { return send_raw(payload.dump()); }

  bool send_raw(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    return write_frame(fd_, payload);
  }

 private:
  int fd_;
  std::mutex mutex_;
};

/// Emits heartbeat frames for one unit on a fixed cadence until stopped.
class HeartbeatTicker {
 public:
  HeartbeatTicker(std::string key, std::uint64_t interval_ms,
                  FrameChannel& out)
      : key_(std::move(key)), interval_ms_(interval_ms), out_(out) {
    thread_ = std::thread([this] { run(); });
  }

  ~HeartbeatTicker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    util::Json frame = util::Json::object();
    frame["type"] = "heartbeat";
    frame["key"] = key_;
    const std::string payload = frame.dump();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      // A failed write means the supervisor is gone; training still runs to
      // completion and the final result write fails the same way.
      (void)out_.send_raw(payload);
    }
  }

  std::string key_;
  std::uint64_t interval_ms_;
  FrameChannel& out_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// How one protocol session over a descriptor ended.
enum class WorkerLoopEnd {
  Shutdown,   ///< supervisor sent a shutdown frame
  Eof,        ///< supervisor closed the stream at a frame boundary
  PeerGone,   ///< a write to the supervisor failed mid-session
  Malformed,  ///< the inbound stream was garbage
};

struct WorkerLoopResult {
  WorkerLoopEnd end = WorkerLoopEnd::Eof;
  bool saw_init = false;  ///< the session got far enough to be real work
};

/// The worker side of the protocol, generic over the stream: blocking reads
/// from `in_fd`, replies through `out`. Shared by pipe workers (stdin/
/// stdout) and TCP daemon slots (the connected socket, both directions).
WorkerLoopResult run_worker_loop(int in_fd, FrameChannel& out) {
  FrameReader reader;
  std::optional<SweepConfig> config;
  std::uint64_t heartbeat_interval_ms = 250;
  WorkerLoopResult outcome;

  char buffer[4096];
  while (true) {
    std::optional<std::string> payload;
    try {
      payload = reader.next();
    } catch (const ProtocolError& error) {
      util::log_error(std::string{"worker: "} + error.what());
      outcome.end = WorkerLoopEnd::Malformed;
      return outcome;
    }
    if (!payload.has_value()) {
      const ssize_t n = ::read(in_fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {  // a reset peer is a gone peer
          outcome.end = WorkerLoopEnd::Eof;
          return outcome;
        }
        util::log_error("worker: stream read failed");
        outcome.end = WorkerLoopEnd::Malformed;
        return outcome;
      }
      if (n == 0) {  // supervisor closed the stream: clean shutdown
        outcome.end = WorkerLoopEnd::Eof;
        return outcome;
      }
      reader.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }

    util::Json frame;
    std::string type;
    try {
      frame = util::Json::parse(*payload);
      type = frame.at("type").as_string();
    } catch (const std::exception& error) {
      util::log_error(std::string{"worker: bad frame: "} + error.what());
      outcome.end = WorkerLoopEnd::Malformed;
      return outcome;
    }

    if (type == "shutdown") {
      outcome.end = WorkerLoopEnd::Shutdown;
      return outcome;
    }

    if (type == "init") {
      try {
        const std::uint64_t version = frame.count_at("version");
        if (version != static_cast<std::uint64_t>(kWorkerProtocolVersion)) {
          util::log_error("worker: unsupported protocol version " +
                          std::to_string(version));
          outcome.end = WorkerLoopEnd::Malformed;
          return outcome;
        }
        config = sweep_config_from_json(frame.at("config"));
        heartbeat_interval_ms = frame.count_at("heartbeat_interval_ms");
      } catch (const std::exception& error) {
        util::log_error(std::string{"worker: bad init frame: "} +
                        error.what());
        outcome.end = WorkerLoopEnd::Malformed;
        return outcome;
      }
      outcome.saw_init = true;
      util::Json ready = util::Json::object();
      ready["type"] = "ready";
      ready["pid"] = static_cast<long>(::getpid());
      if (!out.send(ready)) {
        outcome.end = WorkerLoopEnd::PeerGone;
        return outcome;
      }
      continue;
    }

    if (type != "unit") {
      util::log_error("worker: unknown frame type '" + type + "'");
      outcome.end = WorkerLoopEnd::Malformed;
      return outcome;
    }
    if (!config.has_value()) {
      util::log_error("worker: unit frame before init");
      outcome.end = WorkerLoopEnd::Malformed;
      return outcome;
    }

    WorkUnit unit;
    try {
      unit = work_unit_from_json(frame.at("unit"));
    } catch (const std::exception& error) {
      util::log_error(std::string{"worker: bad unit frame: "} + error.what());
      outcome.end = WorkerLoopEnd::Malformed;
      return outcome;
    }
    const std::string key = unit.key.to_string();

    // Injectable process-level failures (fault_injection.hpp `worker` site):
    // these emulate what a real crashed/wedged/corrupted worker does, so the
    // supervisor's reaping paths are exercised end to end.
    switch (util::FaultInjector::instance().on_worker_unit(key)) {
      case util::WorkerFaultMode::Crash:
        util::log_warn("worker: injected crash on " + key);
        std::abort();
        break;
      case util::WorkerFaultMode::Hang:
        // Wedge silently — no heartbeats, no result — until the supervisor
        // kills this process (or, over TCP, gives up on the connection).
        while (true) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        break;
      case util::WorkerFaultMode::Garbage: {
        util::log_warn("worker: injected garbage frame on " + key);
        // Valid length prefix, payload that is not JSON.
        (void)out.send_raw("\x01\x02garbage, not JSON\x03");
        ::_exit(3);
        break;
      }
      case util::WorkerFaultMode::None:
        break;
    }

    try {
      // Workers serve sweep units only, so the repetition is bounded by the
      // config too (deriving repetition r's stream takes r + 1 splits).
      if (unit.key.repetition >= config->search.repetitions) {
        throw std::invalid_argument(
            "unit field 'repetition' (" +
            std::to_string(unit.key.repetition) +
            ") is not below the sweep config's repetitions (" +
            std::to_string(config->search.repetitions) + ")");
      }
      CandidateResult result;
      {
        HeartbeatTicker ticker{key, heartbeat_interval_ms, out};
        result = evaluate_unit(*config, unit);
      }
      util::Json reply = util::Json::object();
      reply["type"] = "result";
      reply["key"] = key;
      reply["result"] = candidate_result_to_json(result);
      if (!out.send(reply)) {
        outcome.end = WorkerLoopEnd::PeerGone;
        return outcome;
      }
    } catch (const std::exception& error) {
      // A clean in-worker failure (bad spec, stream-count mismatch, ...):
      // report it instead of dying so the supervisor can retry or
      // quarantine without paying a respawn.
      util::Json reply = util::Json::object();
      reply["type"] = "error";
      reply["key"] = key;
      reply["message"] = std::string{error.what()};
      if (!out.send(reply)) {
        outcome.end = WorkerLoopEnd::PeerGone;
        return outcome;
      }
    }
  }
}

}  // namespace

int worker_main() {
  // The supervisor may die while this worker writes to it; a broken pipe
  // should surface as a failed write, not SIGPIPE.
  util::install_sigpipe_guard();
  FrameChannel out{STDOUT_FILENO};
  const WorkerLoopResult outcome = run_worker_loop(STDIN_FILENO, out);
  return (outcome.end == WorkerLoopEnd::Shutdown ||
          outcome.end == WorkerLoopEnd::Eof)
             ? 0
             : 2;
}

int remote_worker_main(const RemoteWorkerOptions& options) {
  util::install_sigpipe_guard();
  const std::size_t slots = options.slots == 0 ? 1 : options.slots;
  std::atomic<bool> gave_up{false};
  std::vector<std::thread> threads;
  threads.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    threads.emplace_back([&options, slots, slot, &gave_up] {
      const std::string tag =
          "qhdl_worker slot " + std::to_string(slot) + ": ";
      std::size_t failures = 0;
      const auto back_off = [&](const std::string& why) {
        failures += 1;
        if (options.max_reconnect_failures > 0 &&
            failures >= options.max_reconnect_failures) {
          util::log_error(tag + "giving up after " +
                          std::to_string(failures) + " failed attempts: " +
                          why);
          gave_up.store(true);
          return false;
        }
        const std::uint64_t wait = backoff_with_jitter_ms(
            options.reconnect_initial_ms, options.reconnect_max_ms, failures,
            options.jitter_seed, slot);
        util::log_warn(tag + why + "; retrying in " + std::to_string(wait) +
                       " ms");
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        return true;
      };

      while (true) {
        util::Socket socket;
        try {
          socket = util::connect_tcp(options.host, options.port,
                                     options.connect_timeout_ms);
        } catch (const std::exception& error) {
          if (!back_off(error.what())) return;
          continue;
        }
        FrameChannel out{socket.fd()};
        WorkerRegistration registration;
        registration.backend = util::simd::active_backend().name;
        registration.slots = slots;
        registration.slot = slot;
        registration.pid = static_cast<long>(::getpid());
        if (!out.send(registration_to_json(registration))) {
          if (!back_off("registration write failed")) return;
          continue;
        }
        util::log_info(tag + "registered with " + options.host + ":" +
                       std::to_string(options.port));
        const WorkerLoopResult served =
            run_worker_loop(socket.fd(), out);
        if (served.end == WorkerLoopEnd::Shutdown) {
          if (!options.persist) {
            util::log_info(tag + "shutdown from supervisor; exiting");
            return;
          }
          util::log_info(tag + "shutdown from supervisor; reconnecting "
                               "(--persist)");
          failures = 0;
          continue;
        }
        // A served session resets the failure streak: this disconnect is
        // the first failure of a new one.
        if (served.saw_init) failures = 0;
        if (!back_off("connection to supervisor lost")) return;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return gave_up.load() ? 1 : 0;
}

#else

int worker_main() {
  util::log_error("worker: --worker-mode requires a POSIX platform");
  return 2;
}

int remote_worker_main(const RemoteWorkerOptions&) {
  util::log_error("worker: --connect requires a POSIX platform");
  return 2;
}

#endif

}  // namespace qhdl::search
