// asyncml_perfbench: runs one benchmark workload unmodeled and prints one
// JSON result line. perfbench/run.py builds this binary, passes it the
// workload's pinned inputs from perfbench/workloads.json, and turns the line
// into the benchmark's result.
//
// Unmodeled means the engine's own cost only: NetworkModel::time_scale = 0,
// a zero-cost CostModel (no service floor), no DelayModel, and the objective
// evaluated after the solver's timed window (TraceRecorder::finalize). Each
// solve is a closed loop: the solver keeps one task in flight per executor
// slot.
//
// Modes:
//   --mode measure --trace 0   end-to-end metrics over the solves whose timed
//                              windows add up to --seconds, after a warm-up
//   --mode measure --trace 1   per-layer metrics: alternating untraced and
//                              traced solves, plus the layer probes
//   --mode rss                 one set-up and one solve, then the process's
//                              peak RSS (a process that runs only the workload)
// --short runs a single solve with no warm-up (the self-test); --tamper
// corrupts the reference the output checks compare against.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace asyncml;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  Spec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool rss_only = false;
  bool short_run = false;
  bool tamper = false;
  std::string workdir;
};

Options parse_args(int argc, char** argv) {
  Options o;
  Spec& s = o.spec;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--short") { o.short_run = true; continue; }
    if (key == "--tamper") { o.tamper = true; continue; }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--name") s.name = v;
    else if (key == "--solver") {
      if (v == "asgd") s.solver = SolverKind::kAsgd;
      else if (v == "asaga") s.solver = SolverKind::kAsaga;
      else if (v == "ssgd") s.solver = SolverKind::kScheduledSgd;
      else throw std::invalid_argument("unknown solver " + v);
    } else if (key == "--data") {
      if (v != "sparse" && v != "dense") throw std::invalid_argument("unknown data " + v);
      s.sparse = v == "sparse";
    } else if (key == "--rows") s.rows = std::stoull(v);
    else if (key == "--cols") s.cols = std::stoull(v);
    else if (key == "--nnz-per-row") s.nnz_per_row = std::stod(v);
    else if (key == "--batch") s.batch_fraction = std::stod(v);
    else if (key == "--step") s.step = std::stod(v);
    else if (key == "--step-kind") {
      if (v != "constant" && v != "inv_sqrt") throw std::invalid_argument("unknown step " + v);
      s.inv_sqrt_step = v == "inv_sqrt";
    } else if (key == "--updates") s.updates = std::stoull(v);
    else if (key == "--target") s.target = std::stod(v);
    else if (key == "--bound") s.bound = std::stod(v);
    else if (key == "--backend") {
      if (v != "inprocess" && v != "unix") throw std::invalid_argument("unknown backend " + v);
      s.unix_socket = v == "unix";
    } else if (key == "--disk") s.disk = v == "1";
    else if (key == "--checkpoint-every") s.checkpoint_every = std::stoull(v);
    else if (key == "--seed") o.seed = std::stoull(v);
    else if (key == "--seconds") o.seconds = std::stod(v);
    else if (key == "--trace") o.trace = v == "1";
    else if (key == "--mode") {
      if (v != "measure" && v != "rss") throw std::invalid_argument("unknown mode " + v);
      o.rss_only = v == "rss";
    } else if (key == "--workdir") o.workdir = v;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (s.rows == 0 || s.cols == 0 || s.updates == 0 ||
      s.target <= 0.0 || s.bound <= 0.0 || o.workdir.empty()) {
    throw std::invalid_argument("incomplete workload spec");
  }
  if (s.sparse && s.nnz_per_row <= 0.0) {
    throw std::invalid_argument("sparse data needs --nnz-per-row");
  }
  if (s.disk && s.checkpoint_every == 0) {
    throw std::invalid_argument("the disk workload checkpoints: set --checkpoint-every");
  }
  return o;
}

optim::Workload make_workload(const Spec& spec, std::uint64_t seed) {
  data::synthetic::Problem problem;
  if (spec.sparse) {
    data::synthetic::SparseSpec sparse;
    sparse.name = spec.name;
    sparse.rows = spec.rows;
    sparse.cols = spec.cols;
    sparse.density = spec.nnz_per_row / static_cast<double>(spec.cols);
    sparse.normalize_rows = true;
    problem = data::synthetic::make_sparse(sparse, seed);
  } else {
    // The epsilon stand-in's shape (data::synthetic::epsilon_like).
    data::synthetic::DenseSpec dense;
    dense.name = spec.name;
    dense.rows = spec.rows;
    dense.cols = spec.cols;
    dense.normalize_rows = true;
    problem = data::synthetic::make_dense(dense, seed);
  }
  auto dataset = std::make_shared<const data::Dataset>(std::move(problem.dataset));
  return optim::Workload::create(std::move(dataset), kWorkers,
                                 optim::make_least_squares());
}

engine::Cluster::Config cluster_config(bool unix_socket) {
  engine::Cluster::Config config;
  config.num_workers = kWorkers;
  config.cores_per_worker = kCoresPerWorker;
  config.network.time_scale = 0.0;
  config.transport.backend =
      unix_socket ? transport::Backend::kUnixSocket : transport::Backend::kInProcess;
  return config;
}

optim::SolverConfig solver_config(const Spec& spec, std::uint64_t seed,
                                  const std::string& disk_dir, bool traced) {
  optim::SolverConfig config;
  config.updates = spec.updates;
  config.batch_fraction = spec.batch_fraction;
  config.step = spec.inv_sqrt_step ? optim::inv_sqrt_step(spec.step)
                                   : optim::constant_step(spec.step);
  config.cost.ms_per_mb = 0.0;
  config.cost.min_service_ms = 0.0;
  // Trace resolution strictly under 1% of the run, for time_to_target_s.
  config.eval_every = std::max<std::uint64_t>(1, (spec.updates - 1) / 100);
  config.seed = seed;
  config.telemetry.enabled = traced;
  if (spec.disk) {
    config.store_config.disk.enabled = true;
    config.store_config.disk.dir = disk_dir + "/tier";
    // fsync latency on a shared VM disk drifts by up to 1.5x from minute to
    // minute, which would time the host's disk instead of the engine; the
    // tier's whole write path (encode, SHA-256, temp file, rename) still runs.
    config.store_config.disk.fsync = false;
    config.checkpoint_every = spec.checkpoint_every;
    config.checkpoint_path = disk_dir + "/checkpoint";
  }
  return config;
}

optim::RunResult run_solver(const Spec& spec, engine::Cluster& cluster,
                            const optim::Workload& workload,
                            const optim::SolverConfig& config) {
  switch (spec.solver) {
    case SolverKind::kAsgd: return optim::AsgdSolver::run(cluster, workload, config);
    case SolverKind::kAsaga: return optim::AsagaSolver::run(cluster, workload, config);
    case SolverKind::kScheduledSgd:
      return optim::ScheduledSgdSolver::run(cluster, workload, config);
  }
  throw std::logic_error("unreachable solver kind");
}

/// Objective error relative to the objective at w = 0 (the trace's first
/// point), so the label scale of a seed's hidden model cancels: targets,
/// bounds and final_objective are all in these units.
double relative_error(const metrics::Trace& trace, const metrics::TracePoint& p) {
  const double initial = trace.front().error;
  return initial > 0.0 ? p.error / initial : p.error;
}

double relative_objective(const metrics::Trace& trace) {
  if (trace.empty()) return std::numeric_limits<double>::infinity();
  return relative_error(trace, trace.back());
}

/// Operations attempted and failed in this process: tasks (a failed task or
/// a transport-synthesized kUnavailable result counts as failed) and output
/// checks.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    checks_passed = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

/// One solve: its set-up time, result, and the cluster counters RunResult
/// does not carry.
struct Solve {
  double setup_s = 0.0;
  optim::RunResult run;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t disk_write_ns = 0;
  double relative_objective = 0.0;
  std::optional<double> time_to_target_ms;
};

double updates_per_s(const optim::RunResult& r) {
  return static_cast<double>(r.updates) / (r.wall_ms / 1e3);
}

/// Problem instances per run. Each solve runs on instance (solve index mod
/// kInstances), generated from support::derive_seed(--seed, instance), and a
/// run solves every instance at least once. How far a fixed budget gets depends
/// on the instance's hidden model (its weight on the slowest eigen-directions
/// varies it by 10-14% between instances), so final_objective averages over
/// instances to stay steady from seed to seed.
constexpr int kInstances = 12;

/// Median over each instance's solves (robust to a slow solve), then the
/// mean over the instances that ran (an expectation over the problem
/// distribution). values[i] belongs to solve i, which ran instance
/// i mod kInstances.
double instance_mean(const std::vector<double>& values) {
  const std::size_t instances = std::min<std::size_t>(kInstances, values.size());
  double sum = 0.0;
  for (std::size_t instance = 0; instance < instances; ++instance) {
    std::vector<double> mine;
    for (std::size_t i = instance; i < values.size(); i += kInstances) {
      mine.push_back(values[i]);
    }
    sum += median(std::move(mine));
  }
  return sum / static_cast<double>(instances);
}

class Runner {
 public:
  explicit Runner(Options options) : o_(std::move(options)) {}

  /// One solve on `instance`. Set-up (data generation, Workload::create,
  /// Cluster construction — which spawns the asyncml_worker processes on the
  /// socket backend) is timed; the reference trajectory and the solve's disk
  /// directory are not.
  Solve solve(int instance, bool traced, bool check_reference = true) {
    const std::uint64_t seed = instance_seed(instance);
    Solve out;
    const Clock::time_point setup_start = Clock::now();
    const optim::Workload workload = make_workload(o_.spec, seed);
    auto cluster = std::make_unique<engine::Cluster>(cluster_config(o_.spec.unix_socket));
    out.setup_s = seconds_since(setup_start);

    const linalg::DenseVector* reference = nullptr;
    if (check_reference && o_.spec.solver == SolverKind::kScheduledSgd) {
      auto it = references_.find(instance);
      if (it == references_.end()) {
        it = references_.emplace(instance, reference_model(workload, seed)).first;
      }
      reference = &it->second;
    }
    const std::string disk_dir = o_.workdir + "/disk";
    if (o_.spec.disk) {
      std::filesystem::remove_all(disk_dir);
      std::filesystem::create_directories(disk_dir);
    }
    const optim::SolverConfig config = solver_config(o_.spec, seed, disk_dir, traced);
    out.run = run_solver(o_.spec, *cluster, workload, config);
    const engine::ClusterMetrics& m = cluster->metrics();
    out.tasks_completed = m.tasks_completed.load();
    out.tasks_failed = m.tasks_failed.load();
    out.disk_write_ns = m.disk.write_ns.load();
    cluster.reset();
    out.relative_objective = relative_objective(out.run.trace);
    for (const metrics::TracePoint& p : out.run.trace) {
      if (relative_error(out.run.trace, p) <= o_.spec.target) {
        out.time_to_target_ms = p.time_ms;
        break;
      }
    }

    std::fprintf(stderr,
                 "perfbench: instance %d%s: setup %.4f s, %.1f updates/s, target at "
                 "%.4f s, objective %.4g\n",
                 instance, traced ? " traced" : "", out.setup_s, updates_per_s(out.run),
                 out.time_to_target_ms.value_or(-1.0) / 1e3, out.relative_objective);
    tally_.attempted += out.tasks_completed + out.tasks_failed;
    tally_.failed += out.tasks_failed;
    check_outputs(out, reference, disk_dir);
    if (o_.spec.disk) std::filesystem::remove_all(disk_dir);
    return out;
  }

  [[nodiscard]] std::uint64_t instance_seed(int instance) const {
    return support::derive_seed(o_.seed, static_cast<std::uint64_t>(instance));
  }

  Tally& tally() { return tally_; }
  const Options& options() const { return o_; }

 private:
  /// The instance's trajectory on the deterministic reference path:
  /// in-process transport, disk tier off, no checkpoints.
  linalg::DenseVector reference_model(const optim::Workload& workload,
                                      std::uint64_t seed) const {
    Spec plain = o_.spec;
    plain.disk = false;
    engine::Cluster cluster(cluster_config(/*unix_socket=*/false));
    const optim::RunResult ref = optim::ScheduledSgdSolver::run(
        cluster, workload, solver_config(plain, seed, "", /*traced=*/false));
    linalg::DenseVector w = ref.final_w;
    if (o_.tamper && w.size() > 0) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &w[0], sizeof bits);
      bits ^= 1;
      std::memcpy(&w[0], &bits, sizeof bits);
    }
    return w;
  }

  void check_outputs(const Solve& s, const linalg::DenseVector* reference,
                     const std::string& disk_dir) {
    const Spec& spec = o_.spec;
    const optim::RunResult& r = s.run;
    // A tampered run checks against a bound no positive objective meets.
    const double bound = o_.tamper ? 0.0 : spec.bound;
    const double final_error = s.relative_objective;
    tally_.check(r.updates == spec.updates,
                 "applied " + std::to_string(r.updates) + " of " +
                     std::to_string(spec.updates) + " updates");
    tally_.check(std::isfinite(final_error) && final_error <= bound,
                 "final objective " + std::to_string(final_error) + " above bound " +
                     std::to_string(bound));
    tally_.check(s.time_to_target_ms.has_value(), "objective target never reached");
    if (reference != nullptr) {
      tally_.check(reference->size() == r.final_w.size() &&
                       std::memcmp(reference->data(), r.final_w.data(),
                                   reference->size() * sizeof(double)) == 0,
                   "final model differs from the in-process, disk-off reference");
    }
    if (spec.unix_socket) {
      const auto& results =
          r.wire[static_cast<std::size_t>(engine::WireChannel::kResult)];
      tally_.check(results.frames >= r.tasks && results.bytes_sent > 0,
                   "socket transport carried no measured result frames");
    }
    if (spec.disk) {
      tally_.check(r.disk.blob_writes > 0 && r.disk.manifest_appends > 0,
                   "disk tier wrote no blobs or manifest records");
      tally_.check(std::filesystem::exists(disk_dir + "/checkpoint"),
                   "no checkpoint written");
    }
  }

  Options o_;
  Tally tally_;
  std::map<int, linalg::DenseVector> references_;
};

const telemetry::StageSummary* find_stage(const telemetry::TelemetryReport& report,
                                          const char* name) {
  for (const telemetry::StageSummary& s : report.stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced solve. Layers are src/ module names.
Metrics layer_metrics(const Solve& s) {
  const optim::RunResult& r = s.run;
  const telemetry::TelemetryReport& rep = *r.telemetry;
  Metrics m;
  const auto mean_us = [&](const char* stage) {
    const telemetry::StageSummary* st = find_stage(rep, stage);
    return st != nullptr ? per(st->sum_ns, static_cast<double>(st->count)) / 1e3 : 0.0;
  };
  const auto p99_us = [&](const char* stage) {
    const telemetry::StageSummary* st = find_stage(rep, stage);
    return st != nullptr && st->count > 0 ? st->p99_ns / 1e3 : 0.0;
  };
  const double updates = static_cast<double>(r.updates);
  const double tasks = static_cast<double>(s.tasks_completed + s.tasks_failed);

  m["core.accumulate_us.mean"] = mean_us("accumulate");
  m["core.staleness.p50"] = rep.staleness.count > 0 ? rep.staleness.p50_ns : 0.0;
  m["core.staleness.p99"] = rep.staleness.count > 0 ? rep.staleness.p99_ns : 0.0;
  m["core.barrier_wait_ms.mean"] = r.mean_wait_ms;

  m["engine.queue_wait_us.mean"] = mean_us("queue_wait");
  m["engine.queue_wait_us.p99"] = p99_us("queue_wait");
  m["engine.task_failed_share"] = per(static_cast<double>(s.tasks_failed), tasks);

  m["store.model_fetch_us.mean"] = mean_us("model_fetch");
  m["store.model_fetch_us.p99"] = p99_us("model_fetch");
  m["store.publish_us.mean"] = mean_us("broadcast_publish");
  m["store.publish_us.p99"] = p99_us("broadcast_publish");
  m["store.broadcast_bytes_per_update"] =
      per(static_cast<double>(r.broadcast_bytes), updates);
  m["store.delta_byte_share"] = per(static_cast<double>(r.broadcast_delta_bytes),
                                    static_cast<double>(r.broadcast_bytes));
  m["store.cache_hit_ratio"] =
      per(static_cast<double>(r.broadcast_hits),
          static_cast<double>(r.broadcast_hits + r.broadcast_fetches));

  // The disk_io stage never sees the driver-side write-through (its count is
  // 0 on disk-on runs), so disk time comes from DiskTierMetrics::write_ns.
  m["disk.write_us_per_update"] = per(static_cast<double>(s.disk_write_ns), updates) / 1e3;
  m["disk.blob_writes_per_update"] = per(static_cast<double>(r.disk.blob_writes), updates);
  m["disk.write_bytes_per_update"] =
      per(static_cast<double>(r.disk.blob_write_bytes), updates);
  m["disk.manifest_appends_per_update"] =
      per(static_cast<double>(r.disk.manifest_appends), updates);

  double frames = 0.0;
  double wire_bytes = 0.0;
  for (const auto& ch : r.wire) {
    frames += static_cast<double>(ch.frames);
    wire_bytes += static_cast<double>(ch.bytes_sent + ch.bytes_received);
  }
  m["transport.frames_per_update"] = per(frames, updates);
  m["transport.bytes_per_update"] = per(wire_bytes, updates);
  m["transport.result_channel_us.mean"] = mean_us("result_channel");
  m["transport.result_channel_us.p99"] = p99_us("result_channel");

  m["optim.compute_us.mean"] = mean_us("compute");
  m["optim.compute_us.p99"] = p99_us("compute");
  m["optim.result_bytes_per_task"] = per(static_cast<double>(r.result_bytes), tasks);

  // Reconciliation: the share of the run the stages account for, worker
  // stages over executor-thread time plus driver stages over wall time.
  double worker_ns = 0.0;
  double driver_ns = 0.0;
  for (std::size_t i = 0; i < telemetry::kNumStages; ++i) {
    const auto* st = find_stage(rep, telemetry::stage_name(static_cast<telemetry::Stage>(i)));
    if (st == nullptr) continue;
    (i < telemetry::kWorkerStages ? worker_ns : driver_ns) += st->sum_ns;
  }
  const double wall_ns = r.wall_ms * 1e6;
  const double threads = static_cast<double>(kWorkers * kCoresPerWorker);
  m["telemetry.unattributed_share"] =
      1.0 - per(worker_ns, threads * wall_ns) - per(driver_ns, wall_ns);
  m["telemetry.dropped_share"] = per(static_cast<double>(rep.dropped),
                                     static_cast<double>(rep.records + rep.dropped));
  return m;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (tally.checks_passed ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": ";
    // JSON has no NaN/inf; a non-finite value already failed a check.
    if (std::isfinite(value)) os << value; else os << -1;
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Solves until kWarmUpSeconds of solver time have passed: the page cache,
/// allocator and worker binary warm up, and on the disk workload write-back
/// settles from its after-idle burst to its sustained level. The solves are
/// checked and their set-up timed, but not counted.
constexpr double kWarmUpSeconds = 3.0;

std::vector<Solve> warm_up(Runner& runner) {
  std::vector<Solve> solves;
  double solver_s = 0.0;
  while (solver_s < kWarmUpSeconds) {
    solves.push_back(runner.solve(0, false));
    solver_s += solves.back().run.wall_ms / 1e3;
  }
  return solves;
}

/// Solves until the solvers' timed windows add up to --seconds and every
/// instance has run, and reports medians over the solves, except
/// final_objective: it is nearly fixed per instance, so it averages over
/// instances (instance_mean). --short runs one solve, no warm-up.
Metrics measure_end_to_end(Runner& runner) {
  const Options& o = runner.options();
  std::vector<double> setup;
  std::vector<double> ups;
  std::vector<double> ttt;
  std::vector<double> objective;
  if (!o.short_run) {
    for (const Solve& s : warm_up(runner)) setup.push_back(s.setup_s);
  }
  double measured_s = 0.0;
  for (int i = 0;; ++i) {
    const Solve s = runner.solve(i % kInstances, false);
    setup.push_back(s.setup_s);
    ups.push_back(updates_per_s(s.run));
    ttt.push_back(s.time_to_target_ms.value_or(s.run.wall_ms) / 1e3);
    objective.push_back(s.relative_objective);
    measured_s += s.run.wall_ms / 1e3;
    if (o.short_run) break;
    if (i + 1 >= kInstances && measured_s >= o.seconds) break;
  }
  return {{"updates_per_s", median(ups)},
          {"time_to_target_s", median(ttt)},
          {"final_objective", instance_mean(objective)},
          {"setup_s", median(setup)}};
}

/// Alternates untraced and traced solves of the same instance; per-layer
/// metrics are medians over the traced ones, telemetry.overhead_pct compares
/// the two sides' median updates_per_s. The probes run on instance 0.
Metrics measure_layers(Runner& runner) {
  const Options& o = runner.options();
  std::vector<double> ups_off;
  std::vector<double> ups_on;
  std::map<std::string, std::vector<double>> layers;
  if (!o.short_run) (void)warm_up(runner);
  double measured_s = 0.0;
  for (int i = 0;; ++i) {
    const int instance = i % kInstances;
    const Solve plain = runner.solve(instance, false);
    const Solve traced = runner.solve(instance, true);
    ups_off.push_back(updates_per_s(plain.run));
    ups_on.push_back(updates_per_s(traced.run));
    measured_s += (plain.run.wall_ms + traced.run.wall_ms) / 1e3;
    if (traced.run.telemetry == nullptr) {
      runner.tally().check(false, "traced solve returned no telemetry report");
    } else {
      for (const auto& [name, value] : layer_metrics(traced)) {
        layers[name].push_back(value);
      }
    }
    if (o.short_run) break;
    if (i >= 2 && measured_s >= o.seconds) break;
  }

  Metrics m;
  for (const auto& [name, values] : layers) m[name] = median(values);
  m["telemetry.overhead_pct"] = (median(ups_off) / median(ups_on) - 1.0) * 100.0;
  const std::uint64_t seed = runner.instance_seed(0);
  const optim::Workload workload = make_workload(o.spec, seed);
  for (const auto& [name, value] :
       run_probes(o.spec, workload, seed, o.short_run ? 3 : 15)) {
    m[name] = value;
  }
  return m;
}

Metrics measure_rss(Runner& runner) {
  (void)runner.solve(0, false, /*check_reference=*/false);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {{"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0}};
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Runner runner(parse_args(argc, argv));
    const Options& o = runner.options();
    const Metrics metrics = o.rss_only ? measure_rss(runner)
                            : o.trace  ? measure_layers(runner)
                                       : measure_end_to_end(runner);
    print_result(runner.tally(), metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
