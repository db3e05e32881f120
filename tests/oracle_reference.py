"""The brute-force oracle one assignment at a time, kept as the reference the
table oracle is compared against: every denotation assignment into a
universe of u elements in the documented order (``itertools.product`` over
the sorted letters, so the first letter varies slowest, each denotation taken
as a little-endian element bitmask), each built as a ``Model`` and checked
with the frozen set semantics of ``semantics_reference``, so that it does not
read the functor table the table oracle reads."""

import itertools
from typing import Optional

from namecalc.core import Formula, letters
from namecalc.semantics import Model, ModelClass
from semantics_reference import reference_evaluate, reference_in_class


def reference_oracle(formula: Formula, cls: ModelClass, universe: int) -> tuple[int, Optional[Model]]:
    """The index of the first in-class assignment that falsifies the formula,
    and that assignment as a model; (-1, None) when there is none."""
    vocab = sorted(letters(formula))
    elements = [f"u{e}" for e in range(universe)]
    subsets = [frozenset(x for e, x in enumerate(elements) if mask >> e & 1)
               for mask in range(1 << universe)]
    for row, denotations in enumerate(itertools.product(subsets, repeat=len(vocab))):
        model = Model(frozenset(elements), dict(zip(vocab, denotations)))
        if reference_in_class(model, cls, vocab) and not reference_evaluate(model, formula):
            return row, model
    return -1, None
