#include "util/parse.h"

#include <algorithm>

namespace lamp::util {

bool ArgParser::parse(int argc, const char* const* argv,
                      std::string& err) const {
  const auto fail = [&err](std::string msg) {
    err = std::move(msg);
    return false;
  };
  bool sawPositional = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (positional_ == nullptr) {
        return fail("unknown option " + std::string(arg));
      }
      if (sawPositional) return fail("multiple inputs given");
      *positional_ = arg;
      sawPositional = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(2, eq == arg.npos ? eq : eq - 2));
    const auto f =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& flag) { return flag.name == name; });
    if (f == flags_.end()) return fail("unknown option " + std::string(arg));
    const bool hasValue =
        eq != arg.npos || (f->how == FlagValue::Spaced && i + 1 < argc);
    const std::string_view value = eq != arg.npos ? arg.substr(eq + 1)
                                   : hasValue     ? argv[++i]
                                                  : "";
    if (f->how == FlagValue::None && hasValue) {
      return fail("--" + name + " takes no value");
    }
    if (!hasValue && f->how != FlagValue::None &&
        f->how != FlagValue::Optional) {
      return fail("--" + name + " needs a value");
    }
    if (f->how == FlagValue::Path && value.empty()) {
      return fail("--" + name + " needs a path");
    }
    if (std::string why; !f->apply(value, why)) {
      return fail(why.empty() ? "bad value '" + std::string(value) +
                                    "' for --" + name
                              : why);
    }
  }
  return true;
}

}  // namespace lamp::util
