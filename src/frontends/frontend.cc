#include "src/frontends/frontend.h"

#include "src/base/strings.h"
#include "src/frontends/beer_parser.h"
#include "src/frontends/gas_parser.h"
#include "src/frontends/hive_parser.h"
#include "src/frontends/lindi_parser.h"

namespace musketeer {

const char* FrontendLanguageName(FrontendLanguage lang) {
  switch (lang) {
    case FrontendLanguage::kBeer:
      return "BEER";
    case FrontendLanguage::kHive:
      return "HiveQL";
    case FrontendLanguage::kGas:
      return "GAS";
    case FrontendLanguage::kLindi:
      return "Lindi";
  }
  return "UNKNOWN";
}

std::optional<FrontendLanguage> FrontendLanguageFromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "beer")) return FrontendLanguage::kBeer;
  if (EqualsIgnoreCase(name, "hive")) return FrontendLanguage::kHive;
  if (EqualsIgnoreCase(name, "gas")) return FrontendLanguage::kGas;
  if (EqualsIgnoreCase(name, "lindi")) return FrontendLanguage::kLindi;
  return std::nullopt;
}

std::unique_ptr<Frontend> MakeFrontend(FrontendLanguage lang) {
  switch (lang) {
    case FrontendLanguage::kBeer:
      return std::make_unique<BeerFrontend>();
    case FrontendLanguage::kHive:
      return std::make_unique<HiveFrontend>();
    case FrontendLanguage::kGas:
      return std::make_unique<GasFrontend>();
    case FrontendLanguage::kLindi:
      return std::make_unique<LindiFrontend>();
  }
  return nullptr;
}

StatusOr<std::unique_ptr<Dag>> ParseWorkflow(FrontendLanguage lang,
                                             const std::string& source) {
  std::unique_ptr<Frontend> frontend = MakeFrontend(lang);
  if (frontend == nullptr) {
    return InvalidArgumentError("unknown front-end language");
  }
  return frontend->Parse(source);
}

}  // namespace musketeer
