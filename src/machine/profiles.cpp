#include "machine/profiles.hpp"

#include <cmath>

#include "support/diag.hpp"

namespace f90d::machine {

namespace {

std::unique_ptr<Topology> hypercube_for(int) { return make_hypercube(); }
std::unique_ptr<Topology> crossbar_for(int) { return make_crossbar(); }

std::unique_ptr<Topology> mesh_for(int nprocs) {
  // Square-ish mesh wide enough to hold every node.
  int width = 1;
  while (width * width < nprocs) ++width;
  return make_mesh2d(width);
}

std::unique_ptr<Topology> fat_tree_for(int) {
  // 16 hosts per edge switch, 8 edge switches per pod (128-host pods):
  // a typical three-tier leaf/spine shape.
  return make_fat_tree(16, 8);
}

}  // namespace

const std::vector<MachineProfile>& portability_profiles() {
  static const std::vector<MachineProfile> profiles = {
      {"ipsc860/hypercube", &CostModel::ipsc860(), &hypercube_for},
      {"ncube2/hypercube", &CostModel::ncube2(), &hypercube_for},
      {"workstation/crossbar", &CostModel::workstation_net(), &crossbar_for},
      {"cluster/fat-tree", &CostModel::modern_cluster(), &fat_tree_for},
      {"cluster/mesh2d", &CostModel::modern_cluster(), &mesh_for},
  };
  return profiles;
}

const MachineProfile& profile_by_name(const std::string& name) {
  for (const MachineProfile& p : portability_profiles())
    if (p.name == name) return p;
  throw Error("unknown machine profile: " + name);
}

SimMachine make_profile_machine(const MachineProfile& profile, int nprocs) {
  return SimMachine(nprocs, *profile.cost, profile.make_topology(nprocs));
}

}  // namespace f90d::machine
