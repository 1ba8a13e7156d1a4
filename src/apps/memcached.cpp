#include "apps/memcached.h"

#include <cassert>

namespace prism::apps {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t at) {
  return static_cast<std::uint16_t>((d[at] << 8) | d[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t at) {
  return (static_cast<std::uint32_t>(get_u16(d, at)) << 16) |
         get_u16(d, at + 2);
}

/// Replaces `out` with the encoded probe.
void start_with_probe(const Probe& probe, std::vector<std::uint8_t>& out) {
  out.resize(kProbeSize);
  encode_probe_into(probe, out);
}

}  // namespace

void encode_kv_request(const KvRequest& req, std::vector<std::uint8_t>& out) {
  start_with_probe(req.probe, out);
  out.push_back(static_cast<std::uint8_t>(req.op));
  put_u16(out, static_cast<std::uint16_t>(req.key.size()));
  out.insert(out.end(), req.key.begin(), req.key.end());
  put_u32(out, static_cast<std::uint32_t>(req.value.size()));
  out.insert(out.end(), req.value.begin(), req.value.end());
}

std::optional<KvRequest> decode_kv_request(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kProbeSize + 1 + 2) return std::nullopt;
  KvRequest req;
  req.probe = *decode_probe(bytes);
  std::size_t at = kProbeSize;
  req.op = static_cast<KvOp>(bytes[at++]);
  const std::uint16_t keylen = get_u16(bytes, at);
  at += 2;
  if (bytes.size() < at + keylen + 4) return std::nullopt;
  req.key.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                 bytes.begin() + static_cast<std::ptrdiff_t>(at + keylen));
  at += keylen;
  const std::uint32_t vallen = get_u32(bytes, at);
  at += 4;
  if (bytes.size() < at + vallen) return std::nullopt;
  req.value.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(at + vallen));
  return req;
}

void encode_kv_response(const KvResponse& resp,
                        std::vector<std::uint8_t>& out) {
  start_with_probe(resp.probe, out);
  out.push_back(static_cast<std::uint8_t>(resp.status));
  put_u32(out, static_cast<std::uint32_t>(resp.value.size()));
  out.insert(out.end(), resp.value.begin(), resp.value.end());
}

std::optional<KvResponse> decode_kv_response(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kProbeSize + 1 + 4) return std::nullopt;
  KvResponse resp;
  resp.probe = *decode_probe(bytes);
  std::size_t at = kProbeSize;
  resp.status = static_cast<KvStatus>(bytes[at++]);
  const std::uint32_t vallen = get_u32(bytes, at);
  at += 4;
  if (bytes.size() < at + vallen) return std::nullopt;
  resp.value.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                    bytes.begin() +
                        static_cast<std::ptrdiff_t>(at + vallen));
  return resp;
}

MemcachedServer::MemcachedServer(sim::Simulator& sim, Config config)
    : sim_(sim), cfg_(config) {
  assert(cfg_.host && cfg_.ns && cfg_.cpu && "MemcachedServer: bad config");
  sock_ = &cfg_.host->udp_bind(*cfg_.ns, cfg_.port);
  sock_->set_on_readable([this] {
    if (!busy_) {
      busy_ = true;
      begin_drain(/*wakeup=*/true);
    }
  });
}

std::string MemcachedServer::key_name(int index) {
  return "key" + std::to_string(index);
}

void MemcachedServer::preload(int count, std::size_t value_size) {
  for (int i = 0; i < count; ++i) {
    store_[key_name(i)] = std::vector<std::uint8_t>(
        value_size, static_cast<std::uint8_t>(i));
  }
}

void MemcachedServer::begin_drain(bool wakeup) {
  const auto& cost = cfg_.host->cost();
  sim::Duration c = cost.syscall_cost;
  if (wakeup) c += cost.wakeup_cost;
  cfg_.cpu->run_task(c, [this] { finish_one(); });
}

void MemcachedServer::finish_one() {
  auto d = sock_->try_recv();
  if (!d) {
    busy_ = false;
    return;
  }
  const auto& cost = cfg_.host->cost();
  sim::Duration work = cost.copy_cost(d->payload().size());

  const auto req = decode_kv_request(d->payload());
  if (req) {
    resp_.probe = req->probe;
    resp_.value.clear();
    if (req->op == KvOp::kGet) {
      ++gets_;
      work += cfg_.get_service;
      const auto it = store_.find(req->key);
      if (it == store_.end()) {
        ++misses_;
        resp_.status = KvStatus::kMiss;
      } else {
        resp_.status = KvStatus::kHit;
        resp_.value.assign(it->second.begin(), it->second.end());
      }
    } else {
      ++sets_;
      work += cfg_.set_service;
      store_[req->key] = req->value;
      resp_.status = KvStatus::kStored;
    }
    // Encoded now and sent from tx_ at the end of the service work: the
    // next request starts only after that.
    encode_kv_response(resp_, tx_);
    const auto src_ip = d->src_ip;
    const auto src_port = d->src_port;
    // Service work, then the response send (its own syscall).
    cfg_.cpu->run_task(work, [this, src_ip, src_port] {
      cfg_.host->udp_send(*cfg_.ns, *cfg_.cpu, cfg_.port, src_ip, src_port,
                          tx_);
      if (sock_->has_data()) {
        begin_drain(/*wakeup=*/false);
      } else {
        busy_ = false;
      }
    });
    return;
  }
  // Malformed request: drop and continue.
  cfg_.cpu->run_task(work, [this] {
    if (sock_->has_data()) {
      begin_drain(/*wakeup=*/false);
    } else {
      busy_ = false;
    }
  });
}

}  // namespace prism::apps
