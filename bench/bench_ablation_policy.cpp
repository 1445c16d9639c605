// Ablation: the pin-selection policy π of the local search.
//
// Compares, on random large nets, the final Pareto hypervolume of PatLabor
// under (a) the shipped default policy, (b) a "distance-only" policy
// (a3 = a4 = 0 — no geometric-tightness terms), (c) a freshly trained
// policy (Section V-B's policy iteration, small budget).  Also reports the
// trainer's per-degree learned weights.
#include "common.hpp"

namespace {

using namespace patlabor;

double mean_hypervolume(const core::Policy& policy, std::uint64_t seed,
                        std::size_t nets, const lut::LookupTable* table) {
  util::Rng rng(seed);
  double sum = 0.0;
  for (std::size_t i = 0; i < nets; ++i) {
    const std::size_t degree = 15 + rng.index(30);
    const geom::Net net = netgen::uniform_net(rng, degree, 10000);
    core::PatLaborOptions opt;
    opt.lambda = 7;
    opt.table = table;
    opt.policy = policy;
    const auto r = core::patlabor(net, opt);
    const auto seed_tree = rsmt::rsmt(net);
    const pareto::Objective ref{2 * seed_tree.wirelength() + 1,
                                2 * seed_tree.delay() + 1};
    const double hv = pareto::hypervolume(r.frontier, ref);
    const double norm = static_cast<double>(ref.w) *
                        static_cast<double>(ref.d);
    sum += hv / norm;
  }
  return sum / static_cast<double>(nets);
}

}  // namespace

int main() {
  const std::size_t nets = util::scaled_count(25);
  const lut::LookupTable table = bench::cached_lut(6);

  core::Policy defaults;

  core::Policy distance_only;
  core::PolicyParams d_only;
  d_only.near_selected = 0.0;
  d_only.hpwl = 0.0;
  distance_only.set_params(0, d_only);

  std::printf("[policy] training (small budget)...\n");
  std::fflush(stdout);
  core::TrainerOptions topt;
  topt.lambda = 7;
  topt.start_degree = 12;
  topt.end_degree = 36;
  topt.degree_step = 12;
  topt.instances_per_degree = 3;
  topt.rollouts_per_instance = 5;
  topt.table = &table;
  util::Timer train_timer;
  const auto trained = core::train_policy(topt);
  const double train_secs = train_timer.seconds();

  io::AsciiTable table_out({"Policy", "Mean normalized hypervolume"});
  io::CsvWriter csv(bench::out_path("ablation_policy.csv"),
                    {"policy", "hypervolume"});
  const struct {
    const char* name;
    const core::Policy* policy;
  } rows[] = {{"default weights", &defaults},
              {"distance-only (a3=a4=0)", &distance_only},
              {"trained (policy iteration)", &trained.policy}};
  for (const auto& r : rows) {
    const double hv = mean_hypervolume(*r.policy, 555, nets, &table);
    table_out.add_row({r.name, util::fixed(hv, 4)});
    csv.row({r.name, io::CsvWriter::num(hv)});
  }
  table_out.print("\n[Ablation] pin-selection policy, " +
                  std::to_string(nets) + " nets (higher is better)");

  io::AsciiTable weights({"Degree", "a1", "a2", "a3", "a4", "HV gain"});
  for (const auto& d : trained.per_degree)
    weights.add_row({std::to_string(d.degree),
                     util::fixed(d.params.far_source, 3),
                     util::fixed(d.params.far_tree, 3),
                     util::fixed(d.params.near_selected, 3),
                     util::fixed(d.params.hpwl, 3),
                     util::fixed(d.mean_hypervolume_gain, 4)});
  weights.print("\n[Trainer] curriculum-learned weights (train time " +
                util::format_duration(train_secs) + ")");
  std::printf("\nCSV: %s\n",
              bench::out_path("ablation_policy.csv").c_str());
  return 0;
}
