"""The dict-rebuilding multi-copy state, kept as a test reference.

A state is a dict from basis tuples to ``SqrtRational`` amplitudes,
checked on every construction; an oracle builds a new dict with the
flipped signs, and an overlap takes one exact root per cross term.
``groverid.oracle`` holds a state as a shared table plus a sign int
instead, and must agree with this on every value.
"""

from fractions import Fraction

from groverid.amplitude import SqrtRational, rational_sqrt


class DictState:
    def __init__(self, n, t, amps):
        if n < 1 or t < 1:
            raise ValueError("need n >= 1 and t >= 1")
        store = {}
        for a, v in amps.items():
            a = tuple(a)
            if len(a) != t:
                raise ValueError(f"tuple {a} has length {len(a)}, expected t={t}")
            for entry in a:
                if not 1 <= entry <= n:
                    raise ValueError(f"tuple entry {entry} out of range 1..{n}")
            if not isinstance(v, SqrtRational):
                raise TypeError(f"amplitude of {a} must be a SqrtRational, got {type(v).__name__}")
            if not v.is_zero:
                store[a] = v
        norm = sum((v.mag2 for v in store.values()), Fraction(0))
        if norm != 1:
            raise ValueError(f"exact state has squared norm {norm}, expected 1")
        self.n, self.t, self.amps = n, t, store

    def mag2(self, a):
        v = self.amps.get(tuple(a))
        return Fraction(0) if v is None else v.mag2

    def tuples(self):
        return self.amps.keys()


def apply_oracle(target, state):
    """Flip the sign of every tuple holding the target an odd number of times."""
    return DictState(
        state.n, state.t, {a: -v if a.count(target) % 2 else v for a, v in state.amps.items()}
    )


def apply_oracle_to_copy(target, state, copy):
    """Flip the sign of every tuple whose entry in slot ``copy`` is the target."""
    return DictState(
        state.n, state.t, {a: -v if a[copy - 1] == target else v for a, v in state.amps.items()}
    )


def overlap(x, y):
    """sum over common tuples of sign * sqrt(mag2_x * mag2_y), one root per
    term; a term that is not a rational square raises ValueError."""
    if (x.n, x.t) != (y.n, y.t):
        raise ValueError(f"shape mismatch: ({x.n}, {x.t}) vs ({y.n}, {y.t})")
    total = Fraction(0)
    for a in x.amps.keys() & y.amps.keys():
        xv, yv = x.amps[a], y.amps[a]
        root = rational_sqrt(xv.mag2 * yv.mag2)
        if root is None:
            raise ValueError(f"sqrt({xv.mag2 * yv.mag2}) is not rational")
        total += xv.sign * yv.sign * root
    return total
