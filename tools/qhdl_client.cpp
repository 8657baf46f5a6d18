// qhdl_client: one-shot client for qhdl_serve.
//
//   ./qhdl_client --port 7117 --type ping
//   ./qhdl_client --port 7117 --type study --family classical --scale test
//   ./qhdl_client --port-file /tmp/serve.port --type stats
//
// Sends one request, prints the reply JSON to stdout, and exits 0 on a
// successful reply (result/pong/stats), 2 when the server shed the request
// (rejected: overloaded/draining), and 1 on errors, cancellations, or
// transport failures — so shell scripts and the CI smoke leg can branch on
// the admission outcome.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "search/worker_protocol.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

std::uint16_t resolve_port(const qhdl::util::Cli& cli) {
  const std::string port_file = cli.get_string("port-file");
  if (!port_file.empty()) {
    std::ifstream in(port_file);
    int port = 0;
    if (!(in >> port) || port <= 0 || port > 65535) {
      throw std::runtime_error("cannot read a port from " + port_file);
    }
    return static_cast<std::uint16_t>(port);
  }
  if (cli.get_int("port") < 0 || cli.get_int("port") > 65535) {
    throw std::runtime_error("--port must be in [0, 65535]");
  }
  return static_cast<std::uint16_t>(cli.get_int("port"));
}

qhdl::search::SweepConfig scale_config(const std::string& scale) {
  if (scale == "paper") return qhdl::core::paper_scale();
  if (scale == "bench") return qhdl::core::bench_scale();
  if (scale == "test") return qhdl::core::test_scale();
  throw std::runtime_error("unknown --scale '" + scale +
                           "' (expected test, bench, or paper)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qhdl;
  util::Cli cli{"qhdl_client", "Send one request to a qhdl_serve instance"};
  cli.add_string("host", "127.0.0.1", "Server address");
  cli.add_int("port", 7117, "Server port");
  cli.add_string("port-file", "",
                 "Read the port from this file (as written by "
                 "qhdl_serve --port-file) instead of --port");
  cli.add_string("type", "ping",
                 "Request type: ping | stats | study | sleep");
  cli.add_string("family", "classical",
                 "Study family: classical | hybrid-bel | hybrid-sel");
  cli.add_string("scale", "test",
                 "Study protocol preset: test | bench | paper");
  cli.add_int("features", 0,
              "Restrict the study to one complexity level (0 = preset's)");
  cli.add_int("max-candidates", 0,
              "Override the preset's per-repetition candidate cap (0 = "
              "keep preset)");
  cli.add_int("epochs", 0, "Override training epochs (0 = keep preset)");
  cli.add_int("runs", 0, "Override runs per model (0 = keep preset)");
  cli.add_int("repetitions", 0, "Override repetitions (0 = keep preset)");
  cli.add_int("seed", 0, "Override the search seed (0 = keep preset)");
  cli.add_int("threads", 0,
              "Override the study's thread width (0 = keep preset)");
  cli.add_int("ms", 100, "Sleep duration for --type sleep");
  cli.add_double("timeout", 0.0,
                 "Reply timeout in seconds (0 = wait forever; with "
                 "--progress it re-arms per received frame)");
  cli.add_flag("progress",
               "Stream per-unit-window progress frames for --type study "
               "(printed to stderr, one line each)");
  cli.add_flag("quiet", "Suppress progress logging");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (!cli.flag("quiet")) util::set_log_level(util::LogLevel::Warn);

    const std::string type = cli.get_string("type");
    util::Json request = util::Json::object();
    if (type == "ping" || type == "stats") {
      request["type"] = type;
    } else if (type == "sleep") {
      request["type"] = "sleep";
      request["ms"] = cli.get_int("ms");
    } else if (type == "study") {
      search::SweepConfig config = scale_config(cli.get_string("scale"));
      if (cli.get_int("features") > 0) {
        config.feature_sizes = {
            static_cast<std::size_t>(cli.get_int("features"))};
      }
      if (cli.get_int("max-candidates") > 0) {
        config.search.max_candidates =
            static_cast<std::size_t>(cli.get_int("max-candidates"));
      }
      if (cli.get_int("epochs") > 0) {
        config.search.train.epochs =
            static_cast<std::size_t>(cli.get_int("epochs"));
      }
      if (cli.get_int("runs") > 0) {
        config.search.runs_per_model =
            static_cast<std::size_t>(cli.get_int("runs"));
      }
      if (cli.get_int("repetitions") > 0) {
        config.search.repetitions =
            static_cast<std::size_t>(cli.get_int("repetitions"));
      }
      if (cli.get_int("seed") > 0) {
        config.search.seed =
            static_cast<std::uint64_t>(cli.get_int("seed"));
      }
      if (cli.get_int("threads") > 0) {
        config.search.threads =
            static_cast<std::size_t>(cli.get_int("threads"));
      }
      request = serve::make_study_request(
          serve::family_from_name(cli.get_string("family")), config);
    } else {
      throw std::runtime_error("unknown --type '" + type + "'");
    }

    const auto timeout_ms =
        static_cast<std::uint64_t>(cli.get_double("timeout") * 1000.0);
    util::Json reply;
    if (cli.flag("progress") && type == "study") {
      request["progress"] = true;
      reply = serve::round_trip(
          cli.get_string("host"), resolve_port(cli), request,
          [](const util::Json& frame) {
            std::fprintf(
                stderr,
                "progress: %s features=%llu rep=%llu unit %llu/%llu%s\n",
                frame.at("family").as_string().c_str(),
                static_cast<unsigned long long>(frame.count_at("features")),
                static_cast<unsigned long long>(frame.count_at("repetition")),
                static_cast<unsigned long long>(frame.count_at("units_done")),
                static_cast<unsigned long long>(frame.count_at("total_units")),
                frame.at("winner_found").as_bool() ? " (winner found)" : "");
          },
          timeout_ms);
    } else {
      reply = serve::round_trip(cli.get_string("host"), resolve_port(cli),
                                request, timeout_ms);
    }
    std::printf("%s\n", reply.dump(2).c_str());

    const std::string reply_type = reply.at("type").as_string();
    if (reply_type == "rejected") return 2;
    if (reply_type == "error" || reply_type == "cancelled") return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qhdl_client: error: %s\n", e.what());
    return 1;
  }
}
