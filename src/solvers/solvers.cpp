// Anchor translation unit: instantiates the solver templates on the
// concrete field types so interface breaks surface at library build time.
#include "solvers/bicgstab.h"
#include "solvers/cg.h"
#include "solvers/gcr.h"
#include "solvers/mixed_cg.h"
#include "solvers/mr.h"
#include "solvers/multishift_cg.h"
#include "solvers/schwarz.h"

#include "fields/lattice_field.h"

namespace lqcd {

template SolverStats cg_solve(const LinearOperator<StaggeredField<double>>&,
                              StaggeredField<double>&,
                              const StaggeredField<double>&, const CgParams&);
template SolverStats cg_solve(const LinearOperator<StaggeredField<float>>&,
                              StaggeredField<float>&,
                              const StaggeredField<float>&, const CgParams&);
template SolverStats cg_solve(const LinearOperator<WilsonField<double>>&,
                              WilsonField<double>&, const WilsonField<double>&,
                              const CgParams&);
template SolverStats bicgstab_solve(const LinearOperator<WilsonField<double>>&,
                                    WilsonField<double>&,
                                    const WilsonField<double>&,
                                    const BiCgStabParams&);
template SolverStats bicgstab_solve(const LinearOperator<WilsonField<float>>&,
                                    WilsonField<float>&,
                                    const WilsonField<float>&,
                                    const BiCgStabParams&);
template SolverStats gcr_solve(const LinearOperator<WilsonField<float>>&,
                               WilsonField<float>&, const WilsonField<float>&,
                               const LinearOperator<WilsonField<float>>*,
                               const GcrParams&,
                               const std::function<void(WilsonField<float>&)>&);
template SolverStats gcr_solve(
    const LinearOperator<WilsonField<double>>&, WilsonField<double>&,
    const WilsonField<double>&, const LinearOperator<WilsonField<double>>*,
    const GcrParams&, const std::function<void(WilsonField<double>&)>&);
template SolverStats multishift_cg_solve(
    const LinearOperator<StaggeredField<float>>&,
    std::vector<StaggeredField<float>>&, const std::vector<double>&,
    const StaggeredField<float>&, const MultishiftParams&,
    std::vector<ShiftResult>*);
template SolverStats multishift_cg_solve(
    const LinearOperator<StaggeredField<double>>&,
    std::vector<StaggeredField<double>>&, const std::vector<double>&,
    const StaggeredField<double>&, const MultishiftParams&,
    std::vector<ShiftResult>*);
template class SchwarzPreconditioner<WilsonField<float>>;
template class SchwarzPreconditioner<WilsonField<double>>;

}  // namespace lqcd
