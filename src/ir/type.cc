#include "ir/type.h"

#include "support/logging.h"

namespace npp {

std::string
cudaTypeName(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::F64:
        return "double";
      case ScalarKind::I64:
        return "long long";
      case ScalarKind::Bool:
        return "bool";
    }
    NPP_PANIC("unknown scalar kind");
}

} // namespace npp
