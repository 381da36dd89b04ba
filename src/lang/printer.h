// Pretty-printer for policies; output round-trips through the parser.
#pragma once

#include <ostream>
#include <string>

#include "lang/ast.h"

namespace contra::lang {

std::string to_string(const Policy& policy);
std::string to_string(const ExprPtr& expr);
std::string to_string(const TestPtr& test);
std::string to_string(const RegexPtr& regex);

/// Streams `to_string(policy)`; also what GoogleTest prints for a Policy
/// parameter, so parameterized test names are the policy text.
std::ostream& operator<<(std::ostream& os, const Policy& policy);

}  // namespace contra::lang
