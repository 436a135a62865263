"""trunclab: exact computation in truncated archimedean vector lattices.

Three desk-scale models are implemented with exact rational arithmetic:
finite pointed Boolean spaces (simple elements and simple truncs), a
convergent-sequence model with polynomial-in-1/n tails, and finite pointed
frames with step-valued frame reals.  Every identity is backed by property
suites and independent brute-force oracles; see the README for the CLI.
"""

from .elements import (GoodSequence, SimpleElement, SimpleTrunc, apply_op,
                       bound_witness, bounded_away_from_zero, clearance,
                       clearance_decomposition, clearance_step, dini_check,
                       element_from_good, good_from_element,
                       is_unital_component, lc, normal_form, pointwise_sup,
                       truncation_sequence, truncation_sequence_check, uc,
                       yosida_quotient)
from .equivalences import EquivalenceReport, equivalence_witness
from .errors import (BudgetError, CertificationError, ParseError,
                     PositivityError, SpaceMismatchError, StructureError,
                     TruncLabError, UnsupportedOperationError)
from .frames import (FiniteFrame, FrameReal, FrameSurjection, OpenInterval,
                     PointedFiniteFrame, chi, drop, e0q_exhaustive,
                     e0q_member, frame_uc_check, induced_op, surjection_tools)
from .gba import (BooleanAlgebra, GeneralizedBooleanAlgebra,
                  IdealizedBooleanAlgebra, clopen, iba_forget, idealize,
                  map_failure, stone)
from .hyper import hyperarchimedean
from .kernels import (KernelSpec, kernel_closure, kernel_conditions,
                      pointwise_closed)
from .seqspace import (SeqTrunc, TailElement, baf_infinity,
                       bounded_away_from_zero_tail, enough_uc_check,
                       ex1_report, simple_part_member)
from .spaces import PointedBooleanSpace, space

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
