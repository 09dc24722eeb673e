#include "src/net/transport.h"

namespace griddles::net {

std::unique_ptr<Connection> Transport::take_idle(const Endpoint& remote) {
  MutexLock lock(idle_mu_);
  const auto it = idle_.find(remote.to_string());
  if (it == idle_.end() || it->second.empty()) return nullptr;
  std::unique_ptr<Connection> conn = std::move(it->second.back());
  it->second.pop_back();
  return conn;
}

void Transport::park_idle(const Endpoint& remote,
                          std::unique_ptr<Connection> conn) {
  MutexLock lock(idle_mu_);
  idle_[remote.to_string()].push_back(std::move(conn));
}

}  // namespace griddles::net
