#include "src/backends/codegen.h"

#include <sstream>

#include "src/backends/pricing.h"
#include "src/base/strings.h"

namespace musketeer {

namespace {

std::string ColumnsOf(const ProjectParams& p) {
  return StrJoin(p.columns, ", ");
}

std::string AggsOf(const std::vector<NamedAgg>& aggs) {
  std::string out;
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::string(AggFnName(aggs[i].fn)) + "(" + aggs[i].column + ") as " +
           aggs[i].output_name;
  }
  return out;
}

// One pseudo-statement per operator, shared across engine syntaxes.
std::string OpStatement(const OperatorNode& n, const Dag& dag,
                        const std::string& assign, const std::string& deref,
                        const std::string& terse) {
  auto in = [&](int i) { return dag.node(n.inputs[i]).output; };
  std::ostringstream os;
  os << n.output << " " << assign << " ";
  switch (n.kind) {
    case OpKind::kInput:
      os << "read(" << deref << std::get<InputParams>(n.params).relation << ")";
      break;
    case OpKind::kSelect:
      os << in(0) << ".filter(" << terse << " "
         << std::get<SelectParams>(n.params).condition->ToString() << ")";
      break;
    case OpKind::kProject:
      os << in(0) << ".map(" << terse << " (" << ColumnsOf(std::get<ProjectParams>(n.params))
         << "))";
      break;
    case OpKind::kMap: {
      os << in(0) << ".map(" << terse << " (";
      const auto& p = std::get<MapParams>(n.params);
      for (size_t i = 0; i < p.outputs.size(); ++i) {
        os << (i > 0 ? ", " : "") << p.outputs[i].expr->ToString() << " as "
           << p.outputs[i].name;
      }
      os << "))";
      break;
    }
    case OpKind::kJoin: {
      const auto& p = std::get<JoinParams>(n.params);
      os << in(0) << ".keyBy(" << p.left_key << ").join(" << in(1) << ".keyBy("
         << p.right_key << "))";
      break;
    }
    case OpKind::kCrossJoin:
      os << in(0) << ".cartesian(" << in(1) << ")";
      break;
    case OpKind::kUnion:
      os << in(0) << ".union(" << in(1) << ")";
      break;
    case OpKind::kIntersect:
      os << in(0) << ".intersection(" << in(1) << ")";
      break;
    case OpKind::kDifference:
      os << in(0) << ".subtract(" << in(1) << ")";
      break;
    case OpKind::kDistinct:
      os << in(0) << ".distinct()";
      break;
    case OpKind::kGroupBy: {
      const auto& p = std::get<GroupByParams>(n.params);
      os << in(0) << ".groupBy(" << StrJoin(p.group_columns, ", ")
         << ").aggregate(" << AggsOf(p.aggs) << ")";
      break;
    }
    case OpKind::kAgg:
      os << in(0) << ".aggregate(" << AggsOf(std::get<AggParams>(n.params).aggs)
         << ")";
      break;
    case OpKind::kMax:
      os << in(0) << ".maxBy(" << std::get<ExtremeParams>(n.params).column << ")";
      break;
    case OpKind::kMin:
      os << in(0) << ".minBy(" << std::get<ExtremeParams>(n.params).column << ")";
      break;
    case OpKind::kTopN: {
      const auto& p = std::get<TopNParams>(n.params);
      os << in(0) << ".top(" << p.column << ", " << p.n << ")";
      break;
    }
    case OpKind::kSort:
      os << in(0) << ".sortBy(" << StrJoin(std::get<SortParams>(n.params).columns, ", ")
         << ")";
      break;
    case OpKind::kWhile: {
      const auto& p = std::get<WhileParams>(n.params);
      os << "iterate(" << p.iterations << ") { /* " << p.body->num_nodes()
         << "-operator loop body */ }";
      break;
    }
    case OpKind::kUdf:
      os << "udf_" << std::get<UdfParams>(n.params).name << "(";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        os << (i > 0 ? ", " : "") << in(i);
      }
      os << ")";
      break;
    case OpKind::kBlackBox:
      os << "native_black_box(...)";
      break;
  }
  return os.str();
}

struct Style {
  const char* header;
  const char* assign;
  const char* deref;
  const char* lambda;
  const char* line_prefix;
  const char* footer;
};

Style StyleFor(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHadoop:
      return {"// Generated Hadoop MapReduce job (Java)\n"
              "public class MusketeerJob extends Configured implements Tool {",
              "=", "hdfs://", "row ->", "  ", "}\n"};
    case EngineKind::kMetis:
      return {"// Generated Metis single-machine MapReduce job (C++)\n"
              "int main(int argc, char** argv) {",
              "=", "", "[](auto& row)", "  ", "}\n"};
    case EngineKind::kSpark:
      return {"// Generated Spark job (Scala)\n"
              "object MusketeerJob {",
              "=", "hdfs://", "x =>", "  val ", "}\n"};
    case EngineKind::kNaiad:
      return {"// Generated Naiad timely dataflow job (C#)\n"
              "public static class MusketeerJob {",
              "=", "hdfs://", "x =>", "  var ", "}\n"};
    case EngineKind::kPowerGraph:
      return {"// Generated PowerGraph GAS vertex program (C++)\n"
              "struct musketeer_vertex_program : public ivertex_program<...> {",
              "=", "", "[](auto& row)", "  ", "};\n"};
    case EngineKind::kGraphChi:
      return {"// Generated GraphChi vertex program (C++)\n"
              "struct MusketeerProgram : public GraphChiProgram<VertexT, EdgeT> {",
              "=", "", "[](auto& row)", "  ", "};\n"};
    case EngineKind::kSerialC:
      return {"/* Generated serial C job */\n"
              "int main(int argc, char** argv) {",
              "=", "", "/*row*/", "  ", "}\n"};
  }
  return {"", "=", "", "", "  ", ""};
}

}  // namespace

std::string GenerateJobCode(const JobPlan& plan) {
  Style style = StyleFor(plan.engine);
  std::ostringstream os;
  os << style.header << "\n";
  os << "  // job: " << plan.name << "\n";
  os << "  // reads: " << StrJoin(plan.inputs, ", ") << "\n";
  os << "  // writes: " << StrJoin(plan.outputs, ", ") << "\n";
  if (plan.graph_path) {
    os << "  // vertex-centric execution (graph idiom detected)\n";
  }
  if (!plan.quirks.shared_scans) {
    os << "  // NOTE: shared scans disabled\n";
  }
  const OperatorNode* miss = plan.quirks.model_type_inference_miss
                                 ? TypeInferenceMissJoin(*plan.dag)
                                 : nullptr;
  for (const OperatorNode& n : plan.dag->nodes()) {
    os << style.line_prefix
       << OpStatement(n, *plan.dag, style.assign, style.deref, style.lambda)
       << ";\n";
    // The extra pass follows the miss join, or the loop whose body holds it.
    bool holds_miss =
        miss != nullptr &&
        (&n == miss ||
         (n.kind == OpKind::kWhile &&
          TypeInferenceMissJoin(*std::get<WhileParams>(n.params).body) == miss));
    if (holds_miss) {
      os << style.line_prefix << miss->output << " " << style.assign << " "
         << miss->output << ".map(" << style.lambda
         << " reshape_for_downstream_key(row));  // extra pass: simple type "
            "inference could not fuse\n";
    }
  }
  for (const std::string& out : plan.outputs) {
    os << "  write(" << style.deref << out << ", " << out << ");\n";
  }
  os << style.footer;
  return os.str();
}

}  // namespace musketeer
