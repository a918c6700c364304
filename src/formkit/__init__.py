"""formkit: finite forms, topogenous orders, and morphism classification.

A form here is a finite base category with one finite complete lattice per
object and a Galois-connected push/pull transfer pair per morphism. The
library verifies the transfer laws, derives closure and interior operators
from meet/join-stable topogenous orders (and back), classifies strict,
final, thick, and cohereditary morphisms, and ships three fully worked
instances: topologies on finite sets, subgroup lattices, and partition
lattices.
"""

__version__ = "0.1.0"

from .forms import CategoryPresentation, CorruptFormError, FormInstance, MorphismKind
from .lattice import FiniteLattice, GaloisPair, MonotoneMap
from .report import Report, Violation
from .topogenous import (
    Operator,
    OrderClass,
    TopogenousOrder,
    classify_order,
    closure_from_order,
    interior_from_order,
    intersect_orders,
    is_idempotent,
    leq_order,
    order_from_closure,
    order_from_interior,
    roundtrip_check,
    verify_interior,
    verify_closure,
    verify_order,
)

__all__ = [
    "CategoryPresentation",
    "CorruptFormError",
    "FiniteLattice",
    "FormInstance",
    "GaloisPair",
    "MonotoneMap",
    "MorphismKind",
    "Operator",
    "OrderClass",
    "Report",
    "TopogenousOrder",
    "Violation",
    "classify_order",
    "closure_from_order",
    "interior_from_order",
    "intersect_orders",
    "is_idempotent",
    "leq_order",
    "order_from_closure",
    "order_from_interior",
    "roundtrip_check",
    "verify_closure",
    "verify_interior",
    "verify_order",
]
