#include "circuit/gate.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace mussti {

bool
isSingleQubit(GateKind kind)
{
    return gateArity(kind) == 1 && kind != GateKind::Measure;
}

const char *
gateName(GateKind kind)
{
    switch (kind) {
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::Rx: return "rx";
      case GateKind::Ry: return "ry";
      case GateKind::Rz: return "rz";
      case GateKind::U: return "u";
      case GateKind::Ms: return "ms";
      case GateKind::Cx: return "cx";
      case GateKind::Cz: return "cz";
      case GateKind::Swap: return "swap";
      case GateKind::Measure: return "measure";
      case GateKind::Barrier: return "barrier";
    }
    panic("unhandled GateKind in gateName");
}

GateKind
gateKindFromName(const std::string &name)
{
    const std::string low = toLower(name);
    static const struct { const char *name; GateKind kind; } table[] = {
        {"x", GateKind::X}, {"y", GateKind::Y}, {"z", GateKind::Z},
        {"h", GateKind::H}, {"s", GateKind::S}, {"sdg", GateKind::Sdg},
        {"t", GateKind::T}, {"tdg", GateKind::Tdg}, {"rx", GateKind::Rx},
        {"ry", GateKind::Ry}, {"rz", GateKind::Rz}, {"u", GateKind::U},
        {"u1", GateKind::Rz}, {"u2", GateKind::U}, {"u3", GateKind::U},
        {"ms", GateKind::Ms}, {"rxx", GateKind::Ms}, {"rzz", GateKind::Ms},
        {"cx", GateKind::Cx}, {"cnot", GateKind::Cx}, {"cz", GateKind::Cz},
        {"swap", GateKind::Swap}, {"measure", GateKind::Measure},
        {"barrier", GateKind::Barrier},
    };
    for (const auto &entry : table) {
        if (low == entry.name)
            return entry.kind;
    }
    fatal("unknown gate mnemonic: " + name);
}

} // namespace mussti
