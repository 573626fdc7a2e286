#include "obs/recorder.h"

namespace socl::obs {

const char* Recorder::span_metric_name(Phase phase) {
  switch (phase) {
    case Phase::kPartition: return "socl.span.partition_us";
    case Phase::kFuzzyAhp: return "socl.span.fuzzy_ahp_us";
    case Phase::kPreprovision: return "socl.span.preprovision_us";
    case Phase::kCombination: return "socl.span.combination_us";
    case Phase::kRouting: return "socl.span.routing_us";
    case Phase::kServerless: return "socl.span.serverless_us";
    case Phase::kServe: return "socl.span.serve_us";
    case Phase::kOther: return "socl.span.other_us";
  }
  return "socl.span.other_us";
}

}  // namespace socl::obs
