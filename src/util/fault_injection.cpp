#include "util/fault_injection.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace qhdl::util {

namespace {

enum class FaultAction { Crash, Fail, Nan, Hang, Garbage, Short, Drop, Slow,
                         Refuse, Reset, Partition };

constexpr std::size_t kSiteCount =
    static_cast<std::size_t>(FaultSite::Connection) + 1;

struct Trigger {
  FaultSite site = FaultSite::UnitBoundary;
  FaultAction action = FaultAction::Crash;
  std::uint64_t arrival = 1;  ///< 1-based arrival count
  bool open_ended = false;    ///< '+' suffix: fires from `arrival` onward
};

const char* site_name(FaultSite site) {
  switch (site) {
    case FaultSite::UnitBoundary: return "unit";
    case FaultSite::IoWrite: return "io";
    case FaultSite::Loss: return "loss";
    case FaultSite::Worker: return "worker";
    case FaultSite::DirSync: return "dir";
    case FaultSite::SocketAccept: return "accept";
    case FaultSite::SocketRead: return "sock";
    case FaultSite::Connection: return "conn";
  }
  return "?";
}

FaultSite parse_site(const std::string& token, const std::string& spec) {
  if (token == "unit") return FaultSite::UnitBoundary;
  if (token == "io") return FaultSite::IoWrite;
  if (token == "loss") return FaultSite::Loss;
  if (token == "worker") return FaultSite::Worker;
  if (token == "dir") return FaultSite::DirSync;
  if (token == "accept") return FaultSite::SocketAccept;
  if (token == "sock") return FaultSite::SocketRead;
  if (token == "conn") return FaultSite::Connection;
  throw std::invalid_argument("QHDL_FAULT_SPEC: unknown site '" + token +
                              "' in '" + spec + "'");
}

FaultAction parse_action(const std::string& token, FaultSite site,
                         const std::string& spec) {
  if (token == "crash") {
    if (site != FaultSite::UnitBoundary && site != FaultSite::IoWrite &&
        site != FaultSite::Worker) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: 'crash' is not valid for the " +
          std::string{site_name(site)} + " site");
    }
    return FaultAction::Crash;
  }
  if (token == "fail") {
    if (site != FaultSite::IoWrite && site != FaultSite::DirSync &&
        site != FaultSite::SocketAccept) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: 'fail' is only valid for the io, dir, and "
          "accept sites");
    }
    return FaultAction::Fail;
  }
  if (token == "short" || token == "drop" || token == "slow") {
    if (token == "slow" && site == FaultSite::Connection) {
      return FaultAction::Slow;
    }
    if (site != FaultSite::SocketRead) {
      throw std::invalid_argument("QHDL_FAULT_SPEC: '" + token +
                                  "' is only valid for the sock site"
                                  " ('slow' also for conn)");
    }
    if (token == "short") return FaultAction::Short;
    if (token == "drop") return FaultAction::Drop;
    return FaultAction::Slow;
  }
  if (token == "refuse" || token == "reset" || token == "partition") {
    if (site != FaultSite::Connection) {
      throw std::invalid_argument("QHDL_FAULT_SPEC: '" + token +
                                  "' is only valid for the conn site");
    }
    if (token == "refuse") return FaultAction::Refuse;
    if (token == "reset") return FaultAction::Reset;
    return FaultAction::Partition;
  }
  if (token == "nan") {
    if (site != FaultSite::Loss) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: 'nan' is only valid for the loss site");
    }
    return FaultAction::Nan;
  }
  if (token == "hang") {
    if (site != FaultSite::Worker) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: 'hang' is only valid for the worker site");
    }
    return FaultAction::Hang;
  }
  if (token == "garbage") {
    if (site != FaultSite::Worker) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: 'garbage' is only valid for the worker site");
    }
    return FaultAction::Garbage;
  }
  throw std::invalid_argument("QHDL_FAULT_SPEC: unknown action '" + token +
                              "' in '" + spec + "'");
}

std::vector<Trigger> parse_spec(const std::string& spec) {
  std::vector<Trigger> triggers;
  for (const std::string& entry : split(spec, ';')) {
    const std::string trimmed = trim(entry);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    const auto at = trimmed.find('@');
    if (eq == std::string::npos || at == std::string::npos || at < eq) {
      throw std::invalid_argument(
          "QHDL_FAULT_SPEC: expected <site>=<action>@<n>[,..] got '" +
          trimmed + "'");
    }
    const FaultSite site = parse_site(trim(trimmed.substr(0, eq)), spec);
    const FaultAction action =
        parse_action(trim(trimmed.substr(eq + 1, at - eq - 1)), site, spec);
    for (const std::string& count : split(trimmed.substr(at + 1), ',')) {
      Trigger trigger;
      trigger.site = site;
      trigger.action = action;
      std::string number = trim(count);
      if (!number.empty() && number.back() == '+') {
        trigger.open_ended = true;
        number.pop_back();
      }
      // Full-match digits only: std::stoll would silently accept trailing
      // junk ("1x", "1++"), turning a typo into a different fault schedule.
      const bool all_digits =
          !number.empty() &&
          number.find_first_not_of("0123456789") == std::string::npos;
      try {
        if (!all_digits) throw std::invalid_argument("not a count");
        const long long value = std::stoll(number);
        if (value < 1) throw std::invalid_argument("non-positive");
        trigger.arrival = static_cast<std::uint64_t>(value);
      } catch (const std::exception&) {
        throw std::invalid_argument(
            "QHDL_FAULT_SPEC: bad trigger count '" + count + "' in '" +
            trimmed + "'");
      }
      triggers.push_back(trigger);
    }
  }
  return triggers;
}

}  // namespace

struct FaultInjector::Impl {
  mutable std::mutex mutex;
  std::vector<Trigger> triggers;
  /// Lock-free disarmed check: the loss site sits on the per-batch training
  /// hot path, so the common (no injection) case must cost one relaxed load.
  std::atomic<bool> any_armed{false};
  std::atomic<std::uint64_t> counters[kSiteCount]{};

  /// Counts the arrival and returns the action that fires for it, if any.
  /// The counter bump and trigger match happen under the mutex so that two
  /// threads arriving concurrently observe distinct arrival numbers and at
  /// most one of them claims any given trigger.
  bool fire(FaultSite site, FaultAction* action) {
    if (!any_armed.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t arrival =
        counters[static_cast<int>(site)].fetch_add(
            1, std::memory_order_relaxed) +
        1;
    for (const Trigger& trigger : triggers) {
      if (trigger.site != site) continue;
      if (arrival == trigger.arrival ||
          (trigger.open_ended && arrival >= trigger.arrival)) {
        if (action != nullptr) *action = trigger.action;
        return true;
      }
    }
    return false;
  }
};

FaultInjector::FaultInjector() : impl_(new Impl) {
  const char* env = std::getenv("QHDL_FAULT_SPEC");
  if (env != nullptr && env[0] != '\0') {
    configure(env);
    log_warn(std::string{"fault injection armed: QHDL_FAULT_SPEC="} + env);
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& spec) {
  // Parse outside the lock so a malformed spec leaves the old state intact.
  std::vector<Trigger> triggers = parse_spec(spec);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->triggers = std::move(triggers);
  impl_->any_armed.store(!impl_->triggers.empty(),
                         std::memory_order_relaxed);
  for (auto& counter : impl_->counters) {
    counter.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::armed() const {
  return impl_->any_armed.load(std::memory_order_relaxed);
}

bool FaultInjector::fires(FaultSite site) {
  return impl_->fire(site, nullptr);
}

std::uint64_t FaultInjector::arrivals(FaultSite site) const {
  return impl_->counters[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

void FaultInjector::on_unit_boundary(const std::string& where) {
  FaultAction action;
  if (!impl_->fire(FaultSite::UnitBoundary, &action)) return;
  throw InjectedCrash("injected crash at unit boundary: " + where);
}

void FaultInjector::on_io_write(const std::string& path) {
  FaultAction action;
  if (!impl_->fire(FaultSite::IoWrite, &action)) return;
  if (action == FaultAction::Crash) {
    throw InjectedCrash("injected crash during write: " + path);
  }
  throw std::runtime_error("injected IO failure (disk full?) writing " +
                           path);
}

bool FaultInjector::poison_loss() {
  FaultAction action;
  if (!impl_->fire(FaultSite::Loss, &action)) return false;
  log_warn(std::string{"fault injection: poisoning loss (arrival "} +
           std::to_string(arrivals(FaultSite::Loss)) + " at site " +
           site_name(FaultSite::Loss) + ")");
  return true;
}

void FaultInjector::on_io_dir_sync(const std::string& path) {
  FaultAction action;
  if (!impl_->fire(FaultSite::DirSync, &action)) return;
  throw std::runtime_error(
      "injected directory fsync failure after renaming " + path);
}

bool FaultInjector::on_socket_accept() {
  FaultAction action;
  if (!impl_->fire(FaultSite::SocketAccept, &action)) return false;
  log_warn(std::string{"fault injection: dropping accepted connection "
                       "(arrival "} +
           std::to_string(arrivals(FaultSite::SocketAccept)) + ")");
  return true;
}

SocketFaultMode FaultInjector::on_socket_read() {
  FaultAction action;
  if (!impl_->fire(FaultSite::SocketRead, &action)) {
    return SocketFaultMode::None;
  }
  switch (action) {
    case FaultAction::Short: return SocketFaultMode::ShortRead;
    case FaultAction::Drop:
      log_warn("fault injection: socket read observes disconnect");
      return SocketFaultMode::Disconnect;
    case FaultAction::Slow:
      return SocketFaultMode::Slow;
    default: return SocketFaultMode::None;
  }
}

bool FaultInjector::on_connect_attempt(const std::string& target) {
  FaultAction action;
  if (!impl_->fire(FaultSite::Connection, &action)) return false;
  if (action != FaultAction::Refuse) return false;
  log_warn("fault injection: refusing outbound connection to " + target +
           " (arrival " + std::to_string(arrivals(FaultSite::Connection)) +
           ")");
  return true;
}

ConnFaultMode FaultInjector::on_connection(const std::string& where) {
  FaultAction action;
  if (!impl_->fire(FaultSite::Connection, &action)) {
    return ConnFaultMode::None;
  }
  switch (action) {
    case FaultAction::Reset:
      log_warn("fault injection: resetting worker connection (" + where +
               ")");
      return ConnFaultMode::Reset;
    case FaultAction::Partition:
      log_warn("fault injection: partitioning worker connection (" + where +
               ")");
      return ConnFaultMode::Partition;
    case FaultAction::Slow: return ConnFaultMode::Slow;
    default: return ConnFaultMode::None;
  }
}

WorkerFaultMode FaultInjector::on_worker_unit(const std::string& key) {
  FaultAction action;
  if (!impl_->fire(FaultSite::Worker, &action)) return WorkerFaultMode::None;
  log_warn("fault injection: worker fault on unit " + key);
  switch (action) {
    case FaultAction::Crash: return WorkerFaultMode::Crash;
    case FaultAction::Hang: return WorkerFaultMode::Hang;
    case FaultAction::Garbage: return WorkerFaultMode::Garbage;
    default: return WorkerFaultMode::None;
  }
}

}  // namespace qhdl::util
