import hypothesis.strategies as st

from namecalc.core import Atom, Bin, Functor, Neg

LETTER_POOL = ("S", "P", "M", "Q")

letters_st = st.sampled_from(LETTER_POOL)


@st.composite
def atoms_st(draw, pool=LETTER_POOL):
    functor = draw(st.sampled_from(list(Functor)))
    subject = draw(st.sampled_from(pool))
    if functor.arity == 1:
        return Atom(functor, subject)
    return Atom(functor, subject, draw(st.sampled_from(pool)))


def formulas_st(pool=LETTER_POOL, max_depth=6):
    base = atoms_st(pool)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(st.sampled_from(["&", "|", "->", "<->"]), inner, inner).map(
                lambda t: Bin(*t)
            ),
        ),
        max_leaves=2 ** (max_depth - 1),
    )


substitutions_st = st.dictionaries(letters_st, letters_st, max_size=4)


# Each shape nested n levels deep around one atom: n parentheses, n
# negations, a chain of n implications, and "~(" units of two levels each.
NESTED_SHAPES = {
    "parentheses": lambda n: "(" * n + "a(S,S)" + ")" * n,
    "negations": lambda n: "~" * n + "a(S,S)",
    "implications": lambda n: "a(S,S) -> " * n + "a(S,S)",
    "negated parentheses": lambda n: "(" * (n % 2) + "~(" * (n // 2) + "a(S,S)" + ")" * (n // 2 + n % 2),
}
