// seneca_boardd: one simulated ZCU104 board behind a SENECA-Wire socket.
// The worker half of the distributed serving tier — a Supervisor fork/execs
// a fleet of these and a ClusterRouter routes to them over RemoteBoards.
//
//   ./seneca_boardd --listen tcp:127.0.0.1:0 --endpoint-file /tmp/b0.ep
//                   --ladder 4M,2M [--input 32] [--workers 2]
//                   [--queue-capacity 32] [--rung-offset 0]
//                   [--online-reprice] [--name worker0]
//
// With --listen tcp:...:0 the kernel picks the port; the resolved endpoint
// is published through --endpoint-file (write-to-temp + rename, so a reader
// never sees a partial write). SIGTERM/SIGINT request an orderly stop.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "serve/net/boardd.hpp"
#include "util/cli.hpp"

namespace {

using namespace seneca;

serve::net::BoardDaemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();  // atomic store: signal-safe
}

std::vector<std::string> split_ladder(const std::string& spec) {
  std::vector<std::string> names;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  if (names.empty()) {
    throw std::invalid_argument("--ladder needs at least one zoo model name");
  }
  return names;
}

/// Publish the endpoint atomically: a reader either sees nothing or the
/// complete line, never a torn write.
void publish_endpoint(const std::string& path, const std::string& spec) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << spec << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::string listen = cli.get("listen", "tcp:127.0.0.1:0");
  const std::string endpoint_file = cli.get("endpoint-file", "");
  const std::string ladder_spec = cli.get("ladder", "4M,2M");
  const auto input = cli.get_int("input", 32);
  const int workers = static_cast<int>(cli.get_int("workers", 2));
  const auto capacity =
      static_cast<std::size_t>(cli.get_int("queue-capacity", 32));

  serve::net::BoardDaemonConfig cfg;
  cfg.listen = serve::net::Endpoint::parse(listen);
  cfg.board.name = cli.get("name", "boardd");
  cfg.board.rung_offset = static_cast<int>(cli.get_int("rung-offset", 0));
  cfg.board.online_reprice = cli.get_bool("online-reprice", false);

  std::fprintf(stderr, "[boardd] building ladder:");
  for (const auto& name : split_ladder(ladder_spec)) {
    std::fprintf(stderr, " %s", name.c_str());
    std::fflush(stderr);
    cfg.board.ladder.push_back(
        {name, core::build_timing_xmodel(name, dpu::DpuArch::b4096(), input),
         workers});
  }
  std::fprintf(stderr, " done\n");

  cfg.board.server = serve::net::boardd_server_config(capacity);

  serve::net::BoardDaemon daemon(std::move(cfg));
  g_daemon = &daemon;
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::string resolved = daemon.endpoint().to_string();
  if (!endpoint_file.empty()) publish_endpoint(endpoint_file, resolved);
  std::fprintf(stderr, "[boardd] %s serving on %s\n",
               daemon.board().name().c_str(), resolved.c_str());

  daemon.run();
  g_daemon = nullptr;
  std::fprintf(stderr, "[boardd] stopped\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "[boardd] fatal: %s\n", e.what());
  return 1;
}
