#include "sim/op.h"

#include <sstream>

#include "common/logging.h"

namespace mussti {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Split: return "split";
      case OpKind::Move: return "move";
      case OpKind::Merge: return "merge";
      case OpKind::IonSwap: return "ion-swap";
      case OpKind::Gate1Q: return "gate1q";
      case OpKind::Gate2Q: return "gate2q";
      case OpKind::FiberGate: return "fiber-gate";
    }
    panic("unhandled OpKind");
}

std::string
ScheduledOp::describe() const
{
    std::ostringstream out;
    out << opKindName(kind) << " q" << q0;
    if (q1 >= 0)
        out << ",q" << q1;
    if (zoneFrom >= 0)
        out << " z" << zoneFrom;
    if (zoneTo >= 0 && zoneTo != zoneFrom)
        out << "->z" << zoneTo;
    out << " (" << durationUs << "us)";
    if (inserted)
        out << " [inserted]";
    return out.str();
}

} // namespace mussti
