"""Polynomial arithmetic for the test references: integer coefficient tuples,
low to high, added and multiplied term by term.  The library itself does no
polynomial arithmetic, so a reference built from these shares no code with
what it checks beyond ``IntPolynomial``'s constructor."""


def add(a, b):
    """The coefficients of a + b."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def mul(a, b):
    """The coefficients of a * b; either factor may be an int scalar."""
    a, b = ((x,) if isinstance(x, int) else x for x in (a, b))
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)
