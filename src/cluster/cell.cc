#include "cluster/cell.h"

namespace deepnote::cluster {

Cell::Cell(CellSpec spec)
    : cluster_(std::move(spec.cluster)),
      engine_(cluster_.topology(), cluster_.device_pointers(), [&] {
        spec.engine.detector = cluster_.config().detector;
        return std::move(spec.engine);
      }()),
      slo_(sim::SimTime::zero()),
      actions_(resilience::chaos_actions(spec.schedule(), engine_, cluster_,
                                         spec.chaos)) {
  slo_.set_focus(spec.focus_begin, spec.focus_end);
}

EngineReport Cell::run() {
  return engine_.run(sim::SimTime::zero(), slo_, std::move(actions_));
}

}  // namespace deepnote::cluster
