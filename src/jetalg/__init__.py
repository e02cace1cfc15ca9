"""jetalg: exact jet calculus on etale charts over the rationals.

Truncated jets of functions and vector fields on charts of the form
Q[x_1..x_N, y_1..y_n]_g (triangular monic algebraic generators y_j, one
inverted denominator g), the smash-product bracket on jets of vector fields,
the local isomorphism with the semidirect product by the positive current
algebra, enveloping-algebra factorizations, and transition functions of the
associated bundle on an atlas.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .multipoly import Poly, Fraction  # noqa: F401
from .charts import ChartSpec, RingElem  # noqa: F401
from .vfields import VectorField  # noqa: F401
from .jets import Jet, jet_of, jet_of_pair, jet_scalar, delta, delta_power  # noqa: F401
from .jetfields import (  # noqa: F401
    JetField, jf_from_pair, decompose,
    localization_partial_sum, localization_remainder,
)
from .liealg import LElem, CurrentElem, SemiDirectElem, phi, psi  # noqa: F401
from .envalg import DiffOp, TensorElem, pbw_normalize, av_to_tensor  # noqa: F401
from .atlas import AtlasSpec, TransitionPair, transition_l, transition_via_iso  # noqa: F401
