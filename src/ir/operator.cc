#include "src/ir/operator.h"

#include <algorithm>
#include <sstream>

#include "src/ir/dag.h"

namespace musketeer {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "INPUT";
    case OpKind::kSelect:
      return "SELECT";
    case OpKind::kProject:
      return "PROJECT";
    case OpKind::kMap:
      return "MAP";
    case OpKind::kJoin:
      return "JOIN";
    case OpKind::kCrossJoin:
      return "CROSS_JOIN";
    case OpKind::kUnion:
      return "UNION";
    case OpKind::kIntersect:
      return "INTERSECT";
    case OpKind::kDifference:
      return "DIFFERENCE";
    case OpKind::kDistinct:
      return "DISTINCT";
    case OpKind::kGroupBy:
      return "GROUP_BY";
    case OpKind::kAgg:
      return "AGG";
    case OpKind::kMax:
      return "MAX";
    case OpKind::kMin:
      return "MIN";
    case OpKind::kTopN:
      return "TOP_N";
    case OpKind::kSort:
      return "SORT";
    case OpKind::kWhile:
      return "WHILE";
    case OpKind::kUdf:
      return "UDF";
    case OpKind::kBlackBox:
      return "BLACK_BOX";
  }
  return "UNKNOWN";
}

SizeBehavior OpSizeBehavior(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect:
    case OpKind::kIntersect:
    case OpKind::kDifference:
    case OpKind::kDistinct:
    case OpKind::kGroupBy:
      return SizeBehavior::kSelective;
    case OpKind::kInput:
    case OpKind::kProject:
    case OpKind::kMap:
    case OpKind::kSort:
      return SizeBehavior::kPreserving;
    case OpKind::kUnion:
      return SizeBehavior::kAdditive;
    case OpKind::kJoin:
    case OpKind::kCrossJoin:
    case OpKind::kUdf:
    case OpKind::kBlackBox:
    case OpKind::kWhile:
      return SizeBehavior::kGenerative;
    case OpKind::kAgg:
    case OpKind::kMax:
    case OpKind::kMin:
    case OpKind::kTopN:
      return SizeBehavior::kConstant;
  }
  return SizeBehavior::kGenerative;
}

double OutputScale(OpKind kind, const std::vector<ScaledRows>& inputs) {
  switch (OpSizeBehavior(kind)) {
    case SizeBehavior::kAdditive: {
      double rows = 0;
      double nominal = 0;
      for (const ScaledRows& in : inputs) {
        rows += in.rows;
        nominal += in.rows * in.scale;
      }
      return rows > 0 ? nominal / rows : inputs[0].scale;
    }
    case SizeBehavior::kConstant:
      return 1.0;
    default: {
      double scale = 0;
      for (const ScaledRows& in : inputs) {
        scale = std::max(scale, in.scale);
      }
      return scale;
    }
  }
}

int OpArity(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return 0;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kMap:
    case OpKind::kDistinct:
    case OpKind::kGroupBy:
    case OpKind::kAgg:
    case OpKind::kMax:
    case OpKind::kMin:
    case OpKind::kTopN:
    case OpKind::kSort:
      return 1;
    case OpKind::kJoin:
    case OpKind::kCrossJoin:
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kDifference:
      return 2;
    case OpKind::kWhile:
    case OpKind::kUdf:
    case OpKind::kBlackBox:
      return -1;  // variable
  }
  return -1;
}

std::string OperatorNode::DebugString() const {
  std::ostringstream os;
  os << OpKindName(kind);
  switch (kind) {
    case OpKind::kInput:
      os << "[" << std::get<InputParams>(params).relation << "]";
      break;
    case OpKind::kSelect:
      os << "[" << std::get<SelectParams>(params).condition->ToString() << "]";
      break;
    case OpKind::kProject: {
      const auto& p = std::get<ProjectParams>(params);
      os << "[";
      for (size_t i = 0; i < p.columns.size(); ++i) {
        os << (i > 0 ? "," : "") << p.columns[i];
      }
      os << "]";
      break;
    }
    case OpKind::kJoin: {
      const auto& p = std::get<JoinParams>(params);
      os << "[" << p.left_key << "=" << p.right_key << "]";
      break;
    }
    case OpKind::kGroupBy: {
      const auto& p = std::get<GroupByParams>(params);
      os << "[";
      for (size_t i = 0; i < p.group_columns.size(); ++i) {
        os << (i > 0 ? "," : "") << p.group_columns[i];
      }
      os << ";";
      for (size_t i = 0; i < p.aggs.size(); ++i) {
        os << (i > 0 ? "," : "") << AggFnName(p.aggs[i].fn) << "(" << p.aggs[i].column
           << ")";
      }
      os << "]";
      break;
    }
    case OpKind::kWhile: {
      const auto& p = std::get<WhileParams>(params);
      os << "[x" << p.iterations << "]";
      break;
    }
    case OpKind::kMax:
    case OpKind::kMin:
      os << "[" << std::get<ExtremeParams>(params).column << "]";
      break;
    case OpKind::kUdf:
      os << "[" << std::get<UdfParams>(params).name << "]";
      break;
    default:
      break;
  }
  os << " -> " << output;
  return os.str();
}

}  // namespace musketeer
