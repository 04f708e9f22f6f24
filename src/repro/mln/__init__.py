"""MLNs, the Prop. 3.1 TID+constraint translation, and Boolean Markov networks."""

from .mln import MarkovLogicNetwork, SoftConstraint
from .translate import (
    Encoding,
    TIDEncoding,
    mln_query_probability,
    mln_query_probability_symmetric,
    mln_to_tid,
)
from .markov_network import (
    BooleanMarkovNetwork,
    Factor,
    encode_factor_iff,
    encode_factor_or,
)

__all__ = [
    "MarkovLogicNetwork",
    "SoftConstraint",
    "Encoding",
    "TIDEncoding",
    "mln_query_probability",
    "mln_query_probability_symmetric",
    "mln_to_tid",
    "BooleanMarkovNetwork",
    "Factor",
    "encode_factor_iff",
    "encode_factor_or",
]
