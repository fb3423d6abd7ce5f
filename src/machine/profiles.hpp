#pragma once
// Named machine profiles: a cost model paired with a topology builder.
//
// The Figure-5 portability claim — one compiled source program, many
// machines — is exercised by sweeping these profiles.  The first two are
// the paper's own evaluation machines; the rest extend the sweep to the
// Express workstation-network target and to a modern cluster fabric, in the
// spirit of the UKQCD portability study.
#include <memory>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"
#include "machine/sim_machine.hpp"
#include "machine/topology.hpp"

namespace f90d::machine {

struct MachineProfile {
  std::string name;         ///< e.g. "ipsc860/hypercube"
  const CostModel* cost;    ///< static cost model (never null)
  std::unique_ptr<Topology> (*make_topology)(int nprocs);
};

/// The portability sweep set: iPSC/860 + hypercube, nCUBE/2 + hypercube,
/// workstation net + crossbar, modern cluster + fat-tree, modern cluster +
/// 2-D mesh.
const std::vector<MachineProfile>& portability_profiles();

/// Look up a profile by name; throws Error when unknown.
const MachineProfile& profile_by_name(const std::string& name);

/// Build a SimMachine of `nprocs` processors for a profile.
SimMachine make_profile_machine(const MachineProfile& profile, int nprocs);

}  // namespace f90d::machine
