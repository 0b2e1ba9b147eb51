"""Polynomial arithmetic for the test references: integer coefficient tuples,
low to high, the form in which every charpoly route returns each d_j, added,
multiplied and evaluated term by term.  The library itself does no
polynomial arithmetic, so a reference built from these shares no code with
what it checks."""


def add(a, b):
    """The coefficients of a + b."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def evaluate(p, x):
    """p(x) by Horner's rule, for an int, Fraction or mpmath ``x``."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def mul(a, b):
    """The coefficients of a * b; either factor may be an int scalar."""
    a, b = ((x,) if isinstance(x, int) else x for x in (a, b))
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)
