#include "src/backends/job.h"

namespace musketeer {

const char* WhileExecName(WhileExec mode) {
  switch (mode) {
    case WhileExec::kNone:
      return "none";
    case WhileExec::kNativeLoop:
      return "native-loop";
    case WhileExec::kPerIterationJobs:
      return "per-iteration-jobs";
    case WhileExec::kVertexRuntime:
      return "vertex-runtime";
  }
  return "unknown";
}

WhileExec WhileModeFor(EngineKind kind, bool vertex_idiom) {
  switch (kind) {
    case EngineKind::kPowerGraph:
    case EngineKind::kGraphChi:
      return WhileExec::kVertexRuntime;
    case EngineKind::kNaiad:
      return vertex_idiom ? WhileExec::kVertexRuntime : WhileExec::kNativeLoop;
    case EngineKind::kSpark:
    case EngineKind::kSerialC:
      return WhileExec::kNativeLoop;
    case EngineKind::kHadoop:
    case EngineKind::kMetis:
      return WhileExec::kPerIterationJobs;
  }
  return WhileExec::kNativeLoop;
}

PlanQuirks GeneratedQuirks(EngineKind kind) {
  PlanQuirks quirks;
  // PROCESS efficiency of generated code relative to the hand-tuned
  // baseline (Figs. 10/11 measure 5-30% overhead).
  switch (kind) {
    case EngineKind::kHadoop:
      quirks.process_efficiency = 0.85;
      break;
    case EngineKind::kSpark:
      quirks.process_efficiency = 0.88;
      break;
    case EngineKind::kNaiad:
      quirks.process_efficiency = 0.98;
      break;
    case EngineKind::kPowerGraph:
    case EngineKind::kGraphChi:
    case EngineKind::kMetis:
      quirks.process_efficiency = 0.90;
      break;
    case EngineKind::kSerialC:
      quirks.process_efficiency = 0.95;
      break;
  }
  quirks.model_type_inference_miss = kind == EngineKind::kSpark;
  return quirks;
}

bool IsShuffleOp(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
    case OpKind::kCrossJoin:
    case OpKind::kGroupBy:
    case OpKind::kAgg:
    case OpKind::kIntersect:
    case OpKind::kDifference:
    case OpKind::kDistinct:
    case OpKind::kMax:
    case OpKind::kMin:
    case OpKind::kTopN:
    case OpKind::kSort:
      return true;
    default:
      return false;
  }
}

bool IsRowwiseOp(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kMap:
      return true;
    default:
      return false;
  }
}

}  // namespace musketeer
