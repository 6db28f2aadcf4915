"""Exact symbolic computation and Gröbner–Shirshov bases for free associative
n-conformal algebras.

The public API is the names this package binds: the core value types and main
entry points imported below, and the submodules. See the README for a tour.
"""

from .indices import (
    MultiIndex,
    falling_factorial,
    index_add,
    index_sub,
    iter_box,
    sign_of,
    unit_index,
    zero_index,
)
from .words import (
    AlgebraSignature,
    ConfPoly,
    ExprTree,
    Leaf,
    LinComb,
    Node,
    NormalWord,
    compare_words,
    single_word,
)
from .engine import Engine
from .naive import naive_normalize
from .rewrite import (
    BOUNDED_COMPLETE,
    COMPLETE,
    LIMIT_REACHED,
    CompositionTask,
    GSBReport,
    Occurrence,
    ReductionTrace,
    RewriteSystem,
    complete,
)
from .envelope import (
    HalfPBWReport,
    LieAlgebraSpec,
    LieConformalSpec,
    brace,
    bracket,
    commutator,
    enveloping_presentation,
    half_pbw_check,
    lie_algebra,
    lie_conformal,
    lie_relation,
    loop_conformal,
    table_entry,
    validate_lie,
)
from .parsing import (
    ParseError,
    Presentation,
    format_polynomial,
    format_word,
    parse_expression,
    parse_presentation,
)

__version__ = "0.1.0"
