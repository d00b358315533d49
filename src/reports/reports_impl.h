// Internal: per-figure report entry points, implemented one file per figure
// under src/reports/ and assembled into the registry by reports.cpp.
#pragma once

#include <string>

#include "workload/scenario.h"

namespace brisa::reports::impl {

#define BRISA_DECLARE_REPORT(ident)              \
  workload::Scenario ident##_defaults();         \
  int ident##_run(const workload::Scenario& scenario)

BRISA_DECLARE_REPORT(fig02);
BRISA_DECLARE_REPORT(fig06);
BRISA_DECLARE_REPORT(fig07);
BRISA_DECLARE_REPORT(fig08);
BRISA_DECLARE_REPORT(fig09);
BRISA_DECLARE_REPORT(fig10);
BRISA_DECLARE_REPORT(fig11);
BRISA_DECLARE_REPORT(fig12);
BRISA_DECLARE_REPORT(fig13);
BRISA_DECLARE_REPORT(fig14);
BRISA_DECLARE_REPORT(tab1);
BRISA_DECLARE_REPORT(tab2);
BRISA_DECLARE_REPORT(ablation);
BRISA_DECLARE_REPORT(fault_recovery);
BRISA_DECLARE_REPORT(scale_sweep);
BRISA_DECLARE_REPORT(buffer_tradeoff);
BRISA_DECLARE_REPORT(generic);

#undef BRISA_DECLARE_REPORT

// Value checks of the reports whose keys take more than a type's worth of
// validation (Report::check).
std::string fault_recovery_check(const std::string& key,
                                 const std::string& value);
std::string scale_sweep_check(const std::string& key,
                              const std::string& value);

}  // namespace brisa::reports::impl
