// Common front-end interface: a front-end turns workflow source text in one
// of the supported languages into the shared IR DAG (§4.1).

#ifndef MUSKETEER_SRC_FRONTENDS_FRONTEND_H_
#define MUSKETEER_SRC_FRONTENDS_FRONTEND_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/ir/dag.h"

namespace musketeer {

enum class FrontendLanguage {
  kBeer,   // Musketeer's own SQL-like DSL with iteration (§4.1.1)
  kHive,   // HiveQL subset (Listing 1)
  kGas,    // Gather-Apply-Scatter DSL (Listing 2)
  kLindi,  // LINQ-style chained-operator language
};

const char* FrontendLanguageName(FrontendLanguage lang);
// "beer" | "hive" | "gas" | "lindi", case-insensitive; nullopt otherwise.
std::optional<FrontendLanguage> FrontendLanguageFromName(std::string_view name);

class Frontend {
 public:
  virtual ~Frontend() = default;
  virtual FrontendLanguage language() const = 0;
  virtual StatusOr<std::unique_ptr<Dag>> Parse(const std::string& source) const = 0;
};

// Factory covering all built-in languages.
std::unique_ptr<Frontend> MakeFrontend(FrontendLanguage lang);

// One-shot convenience.
StatusOr<std::unique_ptr<Dag>> ParseWorkflow(FrontendLanguage lang,
                                             const std::string& source);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_FRONTENDS_FRONTEND_H_
