#include "src/core/delay_model.hpp"

namespace halotis {

TimingPolicy DdmDelayModel::timing_policy() const {
  TimingPolicy policy;
  policy.degradation = true;
  policy.threshold = TimingPolicy::Threshold::kPerPinVt;
  return policy;
}

TimingPolicy CdmDelayModel::timing_policy() const {
  TimingPolicy policy;
  policy.window = window_;
  if (window_ == InertialWindow::kFixed) policy.fixed_window = fixed_window_;
  return policy;
}

}  // namespace halotis
