// The benchmark's workloads. Each generates its pool from the run seed with
// problems::*, reference-solves it during set-up, and runs one op per call
// through the public API. README.md says why each workload exists.
#include <algorithm>
#include <mutex>
#include <sstream>

#include "bench.hpp"
#include "checker.hpp"
#include "core/gpumip.hpp"
#include "lp/batched_lp.hpp"
#include "lp/op_stats.hpp"
#include "lp/pdhg.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace gpumip;

namespace {

/// Seed of one pool shard: the run seed and the shard index, mixed.
std::uint64_t shard_seed(std::uint64_t seed, int shard, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(shard) * 0xbf58476d1ce4e5b9ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int uniform(Rng& rng, int lo, int hi) { return static_cast<int>(rng.uniform_int(lo, hi)); }

// ---- MIP workloads: one op = one Solver::solve --------------------------------

struct MipItem {
  mip::MipModel model;
  double reference = 0.0;
};

class MipWorkload : public Workload {
 public:
  std::size_t pool_size() const override { return pool_.size(); }

  void setup_shard(std::uint64_t seed, int shard, double& generate_s) override {
    Rng rng(shard_seed(seed, shard, salt()));
    const double t0 = now_s();
    std::vector<mip::MipModel> models = generate(rng);
    generate_s += now_s() - t0;
    for (mip::MipModel& model : models) {
      // Reference: sequential B&B, dual simplex forced, cuts and heuristics off.
      mip::MipOptions ref;
      ref.lp_method = lp::LpMethod::Simplex;
      ref.enable_cuts = false;
      ref.enable_heuristics = false;
      mip::BnbSolver solver(model, ref);
      const mip::MipResult r = solver.solve();
      check_internal(r.status == mip::MipStatus::Optimal && r.has_solution,
                     "perfbench: reference solve not optimal (generators are feasible by construction)");
      pool_.push_back(MipItem{std::move(model), r.objective});
    }
  }

  OpOutcome run(std::size_t index, long op, SpanLog* log, Perturb perturb) override {
    const MipItem& item = pool_[index];
    OpOutcome out;
    if (log) {
      // The registry has no presolve timer, so the traced run repeats the
      // facade's presolve as a call of its own to time it.
      Scope s(log, "trace.lp.presolve", op);
      (void)lp::presolve(item.model.lp(), item.model.integer_flags());
    }
    const SolverOptions opts = options();
    SolveReport report;
    {
      Scope s(log, "gpumip.solve", op);
      report = Solver(opts).solve(item.model);
    }
    corrupt(report, perturb);
    {
      Scope s(log, "check", op);
      out.failure = check_mip(item.model, report, item.reference);
    }
    out.ok = out.failure.empty();
    out.sim_s = sim_seconds(report);
    out.layer["gpu.device_s"] += report.device_seconds;
    out.layer["lp.presolve.cols_removed"] += report.presolve_cols_removed;
    if (!report.worker_nodes.empty()) {
      long total = 0, most = 0;
      for (long n : report.worker_nodes) {
        total += n;
        most = std::max(most, n);
      }
      const double mean = static_cast<double>(total) / static_cast<double>(report.worker_nodes.size());
      out.layer["supervisor.imbalance"] += mean > 0 ? static_cast<double>(most) / mean : 1.0;
    }
    if (opts.workers == 0) out.layer["mip.lp_iterations"] += static_cast<double>(report.stats.lp_iterations);
    return out;
  }

 protected:
  virtual std::uint64_t salt() const = 0;
  virtual std::vector<mip::MipModel> generate(Rng& rng) const = 0;
  virtual SolverOptions options() const { return {}; }
  virtual double sim_seconds(const SolveReport& r) const { return r.sim_seconds; }

 private:
  /// The checker drill: break the answer in a way the checker must see.
  static void corrupt(SolveReport& report, Perturb perturb) {
    if (perturb == Perturb::kSolution && !report.x.empty()) report.x[0] += 0.5;  // off-integer
    if (perturb == Perturb::kObjective) report.objective = 1.01 * report.objective + 1.0;
  }

  std::vector<MipItem> pool_;
};

/// bnb-warm: small sequential default solves; every relaxation stays under
/// the chooser's 48-row interior-point bar, so tree + warm dual simplex work.
class BnbWarm final : public MipWorkload {
 protected:
  std::uint64_t salt() const override { return 1; }
  std::vector<mip::MipModel> generate(Rng& rng) const override {
    // Per shard: 300 knapsacks of 40-80 items, 30 set covers, 30 GAPs,
    // shuffled so any prefix of the stream holds the whole mix.
    std::vector<mip::MipModel> out;
    for (int i = 0; i < 300; ++i) out.push_back(problems::knapsack(uniform(rng, 40, 80), rng));
    for (int i = 0; i < 30; ++i) {
      const int e = uniform(rng, 12, 16);
      out.push_back(problems::set_cover(e, 2 * e, rng));
    }
    for (int i = 0; i < 30; ++i) out.push_back(problems::generalized_assignment(3, uniform(rng, 8, 13), rng));
    rng.shuffle(out);
    return out;
  }
};

/// bnb-cold: set covers of 24-30 elements x 2x sets; with root cuts their
/// relaxations cross 48 rows and the default chooser sends nodes to IPM.
class BnbCold final : public MipWorkload {
 protected:
  std::uint64_t salt() const override { return 2; }
  std::vector<mip::MipModel> generate(Rng& rng) const override {
    std::vector<mip::MipModel> out;
    for (int i = 0; i < 4; ++i) {
      const int e = uniform(rng, 24, 30);
      out.push_back(problems::set_cover(e, 2 * e, rng));
    }
    return out;
  }
};

/// scaleout: Solver::solve with three worker ranks and a supervisor;
/// checkpoints are serialized to memory in on_checkpoint.
class Scaleout final : public MipWorkload {
 public:
  OpOutcome run(std::size_t index, long op, SpanLog* log, Perturb perturb) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      checkpoint_s_ = 0.0;
      checkpoint_bytes_ = 0.0;
    }
    OpOutcome out = MipWorkload::run(index, op, log, perturb);
    std::lock_guard<std::mutex> lock(mu_);
    out.layer["supervisor.checkpoint_s"] += checkpoint_s_;
    out.layer["supervisor.checkpoint_bytes"] += checkpoint_bytes_;
    return out;
  }

 protected:
  std::uint64_t salt() const override { return 3; }
  std::vector<mip::MipModel> generate(Rng& rng) const override {
    std::vector<mip::MipModel> out;
    for (int i = 0; i < 150; ++i) out.push_back(problems::knapsack(uniform(rng, 60, 120), rng));
    return out;
  }
  SolverOptions options() const override {
    SolverOptions o;
    o.workers = 3;
    o.supervisor.ramp_up_nodes = 16;
    o.supervisor.worker_node_budget = 64;
    o.supervisor.checkpoint_interval = 4;
    o.supervisor.on_checkpoint = [this](const mip::ConsistentSnapshot& snap) {
      const double t0 = now_s();
      std::ostringstream buf;
      snap.serialize(buf);
      const double bytes = static_cast<double>(buf.str().size());
      std::lock_guard<std::mutex> lock(mu_);
      checkpoint_s_ += now_s() - t0;
      checkpoint_bytes_ += bytes;
    };
    return o;
  }
  double sim_seconds(const SolveReport& r) const override { return r.parallel_makespan; }

 private:
  mutable std::mutex mu_;
  mutable double checkpoint_s_ = 0.0;
  mutable double checkpoint_bytes_ = 0.0;
};

// ---- relax-batch: one op = one device batch of K sibling relaxations --------

struct Shape {
  int rows;
  double density;
  int batch;
};

struct BatchItem {
  Shape shape;
  std::vector<std::unique_ptr<lp::StandardForm>> forms;
  std::vector<const lp::StandardForm*> views;
  std::vector<lp::LpStatus> ref_status;
  std::vector<double> reference;
};

constexpr double kBatchTol = 1e-4;  ///< accuracy the batch asks the chooser for

/// E9-d-like shapes and the method the default chooser picks for each:
/// 40x60 dense -> simplex lockstep, 64x96 and 128x192 sparse -> PDHG,
/// 48x72 dense -> IPM. Batches are small (K=16 is the least the chooser
/// sends to batched PDHG; the cheap 64x96 PDHG shape takes 48), so a run
/// holds many base LPs and the seed-to-seed spread is small. With E9-d's
/// 64x96 K=8 IPM batch at ~1.7 s, one batch outweighed the rest of its
/// group, so the IPM shape is a single relaxation. The
/// simplex shape comes twice, so the median op lies inside the band of
/// the simplex and 128x192 PDHG batches rather than on a gap between shapes.
constexpr Shape kShapes[] = {{40, 0.30, 16}, {40, 0.30, 16}, {64, 0.02, 48}, {128, 0.02, 16}, {48, 0.30, 1}};
constexpr int kGroupsPerShard = 10;

/// K sibling node relaxations: one seeded base LP under K sets of 1-4
/// bound tightenings. The simplex reference re-solves each sibling from
/// the base basis (dual simplex), as B&B would.
std::unique_ptr<BatchItem> make_batch(const Shape& shape, Rng& rng, double& generate_s) {
  auto item = std::make_unique<BatchItem>();
  item->shape = shape;
  const double t0 = now_s();
  const lp::LpModel base = problems::sparse_lp(shape.rows, shape.rows * 3 / 2, shape.density, rng);
  generate_s += now_s() - t0;
  const lp::StandardForm base_form = lp::build_standard_form(base);
  lp::SimplexSolver reference(base_form);
  const lp::LpResult root = reference.solve_default();
  for (int k = 0; k < shape.batch; ++k) {
    const double t1 = now_s();
    auto form = std::make_unique<lp::StandardForm>(base_form);
    const int tighten = uniform(rng, 1, 4);
    for (int t = 0; t < tighten; ++t) {
      const std::size_t j = rng.index(static_cast<std::size_t>(base.num_cols()));
      if (form->ub[j] > form->lb[j]) form->ub[j] = form->lb[j] + 0.8 * (form->ub[j] - form->lb[j]);
    }
    generate_s += now_s() - t1;
    const lp::LpResult r = reference.solve(form->lb, form->ub,
                                           root.status == lp::LpStatus::Optimal ? &root.basis : nullptr);
    item->ref_status.push_back(r.status);
    item->reference.push_back(r.objective);
    item->views.push_back(form.get());
    item->forms.push_back(std::move(form));
  }
  return item;
}

class RelaxBatch final : public Workload {
 public:
  std::size_t pool_size() const override { return pool_.size(); }

  void setup_shard(std::uint64_t seed, int shard, double& generate_s) override {
    Rng rng(shard_seed(seed, shard, 4));
    for (int group = 0; group < kGroupsPerShard; ++group) {
      for (const Shape& shape : kShapes) pool_.push_back(make_batch(shape, rng, generate_s));
    }
  }

  OpOutcome run(std::size_t index, long op, SpanLog* log, Perturb perturb) override {
    BatchItem& item = *pool_[index];
    OpOutcome out;
    lp::LpMethod method;
    {
      Scope s(log, "lp.choose_method", op);
      lp::MethodContext ctx;
      ctx.batch_size = item.shape.batch;
      ctx.tol = kBatchTol;
      method = lp::choose_method(item.views.front()->a_rows, ctx);
    }
    gpu::Device device;
    lp::BatchedLpReport report;
    switch (method) {
      case lp::LpMethod::Simplex: {
        Scope s(log, "lp.solve_batched", op);
        report = lp::solve_batched(item.views, device, lp::BatchMode::Lockstep);
        break;
      }
      case lp::LpMethod::Pdhg: {
        Scope s(log, "lp.solve_batched_pdhg", op);
        lp::PdhgOptions popts;
        popts.tol = kBatchTol;
        report = lp::solve_batched_pdhg(item.views, device, popts);
        break;
      }
      case lp::LpMethod::InteriorPoint: {
        // No batched IPM exists: the batch is K solves replayed back to back
        // on one stream (as E9-d prices it).
        Scope s(log, "lp.interior_point", op);
        for (const lp::StandardForm* form : item.views) {
          lp::InteriorPointSolver ipm(*form);
          report.results.push_back(ipm.solve_default());
          lp::charge_to_device(device, 0, report.results.back().ops, item.shape.density < 0.3);
          out.layer["lp.ipm.iterations"] += static_cast<double>(report.results.back().iterations);
        }
        report.sim_seconds = device.synchronize();
        break;
      }
    }
    if (!report.results.empty()) {
      if (perturb == Perturb::kSolution) report.results[0].status = lp::LpStatus::IterationLimit;
      if (perturb == Perturb::kObjective) {
        report.results[0].objective = 1.01 * report.results[0].objective + 1.0;
      }
    }
    {
      Scope s(log, "check", op);
      if (report.results.size() != item.views.size()) out.failure = "batch returned the wrong count";
      for (std::size_t k = 0; k < report.results.size() && out.failure.empty(); ++k) {
        if (item.ref_status[k] != lp::LpStatus::Optimal) {
          if (report.results[k].status != item.ref_status[k]) out.failure = "status differs from reference";
        } else {
          out.failure = check_relaxation(report.results[k], item.reference[k], method);
        }
      }
    }
    out.ok = out.failure.empty();
    out.sim_s = report.sim_seconds;
    out.layer["gpu.device_s"] += report.sim_seconds;
    return out;
  }

 private:
  std::vector<std::unique_ptr<BatchItem>> pool_;
};

}  // namespace

std::vector<std::string> workload_names() { return {"bnb-warm", "bnb-cold", "scaleout", "relax-batch"}; }

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "bnb-warm") return std::make_unique<BnbWarm>();
  if (name == "bnb-cold") return std::make_unique<BnbCold>();
  if (name == "scaleout") return std::make_unique<Scaleout>();
  if (name == "relax-batch") return std::make_unique<RelaxBatch>();
  return nullptr;
}

}  // namespace perfbench
