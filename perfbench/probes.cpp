// Per-layer probes: timed calls into the store, transport and optim layers'
// public functions, on the workload's own dimension, batch and gradient.

#include <chrono>
#include <stdexcept>
#include <vector>

#include "optim/grad_batch.hpp"
#include "optim/solver_util.hpp"
#include "perfbench.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "transport/wire.hpp"

namespace perfbench {

using namespace asyncml;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Versions per publish/resolve round: four base intervals of the default
/// StoreConfig, so a round covers bases, deltas and chain walks in the same
/// mix a run does.
constexpr engine::Version kChain = 64;

/// Publishes `kChain` versions, each one step along `grad` — so each delta
/// has the support of one mini-batch gradient — and returns the mean ns per
/// ModelStore::publish.
double publish_chain(store::ModelStore& model_store, linalg::DenseVector& w,
                     const linalg::GradVector& grad) {
  double total_ns = 0.0;
  for (engine::Version v = 0; v < kChain; ++v) {
    grad.scale_into(-1e-3, w.span());
    const Clock::time_point start = Clock::now();
    (void)model_store.publish(w, v);
    total_ns += ns_since(start);
  }
  return total_ns / static_cast<double>(kChain);
}

/// Mean ns for a worker that holds version head-1 to materialize head.
double resolve_step(const engine::BroadcastStore& broadcasts,
                    const store::ModelStore& model_store, int iters) {
  engine::NetworkModel net;
  net.time_scale = 0.0;
  double total_ns = 0.0;
  for (int it = 0; it < iters; ++it) {
    engine::ClusterMetrics metrics(1);
    engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
    store::VersionedModelCache cache(&model_store, &bcache, &metrics);
    (void)cache.value_at(kChain - 2);
    const Clock::time_point start = Clock::now();
    const linalg::DenseVector& w = cache.value_at(kChain - 1);
    total_ns += ns_since(start);
    if (w.size() == 0) throw std::logic_error("resolve probe: empty model");
  }
  return total_ns / static_cast<double>(iters);
}

}  // namespace

Metrics run_probes(const Spec& spec, const optim::Workload& workload,
                   std::uint64_t seed, int rounds) {
  const data::Dataset& dataset = *workload.dataset;
  const std::size_t dim = workload.dim();
  optim::SolverConfig config;
  config.batch_fraction = spec.batch_fraction;
  const linalg::GradVectorConfig grad_cfg = optim::detail::grad_config(workload, config);

  // One partition's mini-batch, drawn the way a task draws it.
  const data::RowRange range = workload.partitions.at(0);
  engine::TaskContext ctx;
  ctx.partition = 0;
  ctx.rng = support::RngStream(seed).substream(0);
  support::ScratchArena& arena = support::ScratchArena::local();
  auto rows = optim::detail::select_batch_rows(range, spec.batch_fraction, ctx, arena);
  linalg::DenseVector w(dim);
  support::RngStream wrng(seed + 1);
  for (std::size_t i = 0; i < dim; ++i) w[i] = wrng.uniform(-0.01, 0.01);

  const auto grad_once = [&] {
    linalg::GradVector g(grad_cfg);
    optim::detail::fused_grad_sum(dataset, range, rows.span(), *workload.loss,
                                  w.span(), g, arena);
    return g;
  };
  const linalg::GradVector grad = grad_once();

  // A task result of the workload's own payload type and shape.
  engine::TaskResult result;
  result.id = 1;
  result.partition = 0;
  result.seq = 1;
  result.model_version = 1;
  const std::uint64_t count = rows.vec().size();
  if (spec.solver == SolverKind::kAsaga) {
    optim::GradHist payload{grad, grad, count};
    const std::size_t bytes = optim::payload_size_bytes(payload);
    result.payload = engine::Payload::wrap<optim::GradHist>(std::move(payload), bytes);
  } else {
    optim::GradCount payload{grad, count};
    const std::size_t bytes = optim::payload_size_bytes(payload);
    result.payload = engine::Payload::wrap<optim::GradCount>(std::move(payload), bytes);
  }

  std::vector<double> grad_ns;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<double> publish_ns;
  std::vector<double> resolve_ns;
  constexpr int kCalls = 32;
  for (int round = 0; round < rounds; ++round) {
    double total = 0.0;
    for (int i = 0; i < kCalls; ++i) {
      const Clock::time_point start = Clock::now();
      const linalg::GradVector g = grad_once();
      total += ns_since(start);
      if (g.nnz() != grad.nnz()) throw std::logic_error("grad probe: support changed");
    }
    grad_ns.push_back(total / kCalls);

    double enc = 0.0;
    double dec = 0.0;
    for (int i = 0; i < kCalls; ++i) {
      Clock::time_point start = Clock::now();
      const std::vector<std::uint8_t> body =
          transport::encode_task_result(transport::to_wire(result));
      enc += ns_since(start);
      start = Clock::now();
      transport::TaskResultMsg msg;
      const support::Status status = transport::decode_task_result(body, msg);
      const auto decoded = transport::from_wire(msg, nullptr);
      dec += ns_since(start);
      if (!status.is_ok() || !decoded.is_ok() ||
          decoded.value().payload.bytes() != result.payload.bytes()) {
        throw std::logic_error("transport probe: result did not round-trip");
      }
    }
    encode_ns.push_back(enc / kCalls);
    decode_ns.push_back(dec / kCalls);

    engine::BroadcastStore broadcasts;
    store::ModelStore model_store(&broadcasts, store::StoreConfig{});
    linalg::DenseVector model = w;
    publish_ns.push_back(publish_chain(model_store, model, grad));
    resolve_ns.push_back(resolve_step(broadcasts, model_store, 8));
  }
  return {{"optim.grad_batch_ns.probe", median(grad_ns)},
          {"transport.result_encode_ns.probe", median(encode_ns)},
          {"transport.result_decode_ns.probe", median(decode_ns)},
          {"store.publish_ns.probe", median(publish_ns)},
          {"store.resolve_ns.probe", median(resolve_ns)}};
}

}  // namespace perfbench
