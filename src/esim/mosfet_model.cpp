#include "esim/mosfet_model.hpp"

namespace sks::esim {

double mosfet_current(const MosParams& params, MosFault fault, double vg,
                      double vd, double vs) {
  return eval_mosfet(params, fault, vg, vd, vs).id;
}

MosEval eval_mosfet(const MosParams& params, MosFault fault, double vg,
                    double vd, double vs) {
  const double sign = params.type == MosType::kNmos ? 1.0 : -1.0;
  const double beta = params.beta();
  const double on = fault == MosFault::kStuckOn ? 1.0 : 0.0;
  const double open = fault == MosFault::kStuckOpen ? 1.0 : 0.0;
  const MosLanes lane{&sign, &beta, &params.vt, &params.lambda,
                      &params.full_on_vgs, &on, &open};
  MosEval r;
  mosfet_lanes(1, lane, &vg, &vd, &vs, &r.id, &r.gm, &r.gds);
  return r;
}

}  // namespace sks::esim
