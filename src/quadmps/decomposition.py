"""Quadratic decomposition of a monic polynomial sequence.

Fix omega(x) = x^2 + p x + q and an anchor a. Each W_m is held as its
row of coordinates [u_0, v_0, u_1, v_1, ...] in the monic basis omega^i,
(x - a) omega^i (of degrees 2i, 2i + 1): one canonical `Poly`, monic of
length m + 1 (`_shape_ok`). Its parts, the u_i and the v_i, give
W_m = u_m(omega) + (x - a) v_m(omega) in the omega-variable, and the
four component sequences are the parts at each parity,

    W_{2n}(x)   = P_n(omega(x)) + (x - a) a_{n-1}(omega(x)),
    W_{2n+1}(x) = b_n(omega(x)) + (x - a) R_n(omega(x)),

with deg P_n = deg R_n = n (monic), deg a_n <= n, deg b_n <= n and the
sentinel a_{-1} = v_0 = 0. The rows are produced two ways that must
agree exactly:

* decompose: the MPS recurrence on rows, driven by the structure
  coefficients of {W_n}, never materializing W_n itself. Since
  x (x - a) = omega - (p + a)(x - a) - omega(a), x acts on a row J as
  x J = a J + shift(J) - omega(a) E(J) - (p + 2a) O(J), where shift
  moves slot k to k + 1, E moves each v_i down to slot 2i and O keeps it
  at 2i + 1. Each step builds a row with one pass over the (u_i, v_i) of
  the last, one scaled accumulation per nonzero chi entry and one
  content reduction;
* decompose_oracle: change of basis on materialized W_n, by integer
  omega-adic division (`_anchor_digits`), each row reduced once.

Parts are reduced only where a canonical Poly is asked for: the views
`pairs`, `p_seq`, `a_seq`, `b_seq` and `r_seq` reduce each once, on
first use. The report path never does: `layout` reads each part off its
row, and the writers reduce each coefficient as they format it.

Because the split is unique, decompose_oracle is also the reconstruction
proof: `verify_case` compares its components of the materialized W_m
with those of decompose, and reads from them the identities that would
otherwise rebuild each W_m by composition with omega.

The recurrences of the components are one relation on either part of
the rows, checked by `_relation_violations`, with the scalars
`_mixed_scalars` of the seven-term mixed relations of any 2-orthogonal
input, or the three constants of the source family's third-order ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Sequence

from .errors import (
    InvalidSequenceError,
    NotNormalizableError,
    ParseError,
    RangeError,
)
from .polynomials import (
    ONE,
    Poly,
    ZERO,
    _make,
    _reduced,
    _times_x,
    lincomb,
    poly_from_strings,
    poly_to_strings,
)
from .rationals import to_fraction
from .sequences import StructureCoefficients, _validate_mps
from .wire import Record, Wire, _exact_keys, _json_list, _json_object

Scalar = Fraction | int
Pair = tuple[Poly, Poly]

# the record keys of the parts of W_2n and W_2n+1
_KEYS = (("P", "a_prev"), ("b", "R"))


class QuadMap(Wire):
    """The substitution x -> x^2 + p x + q together with the anchor a."""

    p: Fraction
    q: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", to_fraction(self.p))
        object.__setattr__(self, "q", to_fraction(self.q))
        object.__setattr__(self, "a", to_fraction(self.a))

    @property
    def omega(self) -> Poly:
        return Poly((self.q, self.p, 1))

    @property
    def omega_at_anchor(self) -> Fraction:
        return self.a * self.a + self.p * self.a + self.q


def _shape_ok(m: int, row: Poly) -> bool:
    """Whether row is shaped as that of a monic W_m: monic of length
    m + 1, so part m % 2 is monic of degree m // 2 and the other part
    has degree at most (m - 1) // 2."""
    return row.degree == m and row.is_monic


def _row(u: Poly, v: Poly) -> Poly:
    """The row of u(omega) + (x - a) v(omega): u_i at slot 2i, v_i at 2i + 1."""
    den = lcm(u._den, v._den)
    num = [0] * (2 * max(len(u._num), len(v._num)))
    num[0 : 2 * len(u._num) : 2] = [c * (den // u._den) for c in u._num]
    num[1 : 2 * len(v._num) : 2] = [c * (den // v._den) for c in v._num]
    return _reduced(num, den)


def _part(row: Poly, k: int) -> Poly:
    """Part k of a row over the row's denominator, not reduced: fit for a
    writer, which reduces each coefficient it formats, not for `==`."""
    num = row._num[k::2]
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    return _make(num[:end], row._den)


class QdComponents(Record):
    """One quadratic decomposition: the row of each W_m, m = 0..2 nmax + 1,
    with v_0 = a_{-1} = 0. The parts of each row (`pairs`) and the four
    component sequences are canonical read-only views, each built once:
    P_n and a_{n-1} are the parts of W_2n, b_n and R_n those of W_2n+1."""

    map: QuadMap
    rows: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) < 2 or len(self.rows) % 2:
            raise InvalidSequenceError(f"need 2 nmax + 2 rows, got {len(self.rows)}")
        if self.rows[0].degree > 0:
            raise InvalidSequenceError("v_0 = a_-1 must be zero")

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple((_reduced(list(r._num[::2]), r._den),
                      _reduced(list(r._num[1::2]), r._den)) for r in self.rows)

    p_seq = cached_property(lambda self: tuple(u for u, _ in self.pairs[0::2]))
    a_seq = cached_property(lambda self: tuple(v for _, v in self.pairs[2::2]))
    b_seq = cached_property(lambda self: tuple(u for u, _ in self.pairs[1::2]))
    r_seq = cached_property(lambda self: tuple(v for _, v in self.pairs[1::2]))

    @property
    def nmax(self) -> int:
        return len(self.rows) // 2 - 1

    def to_json(self) -> dict:
        return self.layout(poly_to_strings)

    def layout(self, leaf: Callable[[Poly], object] = lambda f: f) -> dict:
        """The to_json payload with each part f written as leaf(f); by
        default the part itself, read off its row and not reduced (`_part`),
        for a writer that formats each one only when it reaches it."""
        records = [
            {"n": n, "P": leaf(_part(w, 0)), "a_prev": leaf(_part(w, 1)),
             "b": leaf(_part(z, 0)), "R": leaf(_part(z, 1))}
            for n, (w, z) in enumerate(zip(self.rows[0::2], self.rows[1::2]))
        ]
        return {"map": self.map.to_json(), "nmax": self.nmax, "components": records}

    @staticmethod
    def from_json(data: dict) -> "QdComponents":
        """Load a payload in the form to_json writes, and nothing else:
        records n = 0..nmax each once, a declared nmax that matches them,
        and the parts (P_n, a_{n-1}) and (b_n, R_n) of each record in the
        shape of a row (`_shape_ok`)."""
        _json_object(data, "component payload")
        _exact_keys(data, ("map", "components"), "component payload", ("nmax",))
        try:
            qmap = QuadMap.from_json(data["map"])
            records = _json_list(data["components"], "components")
            for r in records:
                _json_object(r, "component record")
                _exact_keys(r, ("n", "P", "a_prev", "b", "R"), "component record")
            records = sorted(records, key=lambda r: r["n"])
            ns = [r["n"] for r in records]
            rows = [
                _row(poly_from_strings(r[u]), poly_from_strings(r[v]))
                for r in records
                for u, v in _KEYS
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed component payload: {exc}") from exc
        nmax = len(records) - 1
        if not ns or any(type(n) is not int for n in ns) or ns != list(range(nmax + 1)):
            raise ParseError(f"records must carry n = 0..nmax each once, got {ns}")
        declared = data.get("nmax", nmax)
        if type(declared) is not int or declared != nmax:
            raise ParseError(
                f"declared nmax {declared!r} does not match {nmax + 1} records"
            )
        for m, row in enumerate(rows):
            if not _shape_ok(m, row):
                keys = _KEYS[m % 2]
                raise ParseError(
                    f"record {m // 2}: need {keys[m % 2]} monic of degree {m // 2}"
                    f" and deg {keys[1 - m % 2]} <= {(m - 1) // 2}"
                )
        return QdComponents(qmap, rows)


def decompose(
    sc: StructureCoefficients, qmap: QuadMap, nmax: int
) -> QdComponents:
    """Run the MPS recurrence of {W_n} on the rows.

    Produces the rows of W_0..W_{2 nmax + 1} from structure coefficients
    alone. Needs beta up to index 2*nmax and chi rows up to 2*nmax - 1.

    W_{m+2} = (x - beta_{m+1}) W_{m+1} - sum_nu chi_{m,nu} W_nu. By x J
    of the module docstring, with c = a - beta_{m+1} and (u_i, v_i) the
    slots of J = row m + 1, (x - beta_{m+1}) J has c u_i - omega(a) v_i +
    v_{i-1} at slot 2i and u_i + (c - p - 2a) v_i at 2i + 1. All is summed
    over one denominator in one integer list, and only the sum is reduced.
    """
    if nmax < 0:
        raise RangeError("nmax must be >= 0")
    if sc.nmax < 2 * nmax:
        raise RangeError(
            f"need structure coefficients up to index {2 * nmax}, have {sc.nmax}"
        )
    a, wa, s = qmap.a, qmap.omega_at_anchor, qmap.p + 2 * qmap.a
    rows = [ONE, Poly((a - sc.beta[0], 1))]
    for m in range(2 * nmax):
        last = rows[-1]
        c = a - sc.beta[m + 1]
        # (x - beta) J has integer slots over own = last._den * k
        k = lcm(c.denominator, wa.denominator, s.denominator)
        den = own = last._den * k
        terms = []
        for chi, w in zip(sc.chi[m], rows):
            if chi:
                cn, cd = chi.as_integer_ratio()
                d = cd * w._den
                if den % d:
                    den = lcm(den, d)
                terms.append((cn, d, w._num))
        k *= den // own  # each scalar's multiplier over den
        cu = c.numerator * (k // c.denominator)
        cw = wa.numerator * (k // wa.denominator)
        cv = cu - s.numerator * (k // s.denominator)
        # an odd row gets a zero top v, so every slot has its pair
        j = last._num + (0,) * (len(last._num) % 2)
        u, v = j[0::2], j[1::2]
        out = [0] * (len(j) + 1)
        out[0:-1:2] = [cu * x - cw * y + k * z for x, y, z in zip(u, v, (0,) + v)]
        out[1::2] = [k * x + cv * y for x, y in zip(u, v)]
        out[-1] = k * v[-1]
        for cn, d, num in terms:
            t = cn if d == den else cn * (den // d)
            out[: len(num)] = [o - t * b for o, b in zip(out, num)]
        rows.append(_reduced(out, den))
    return QdComponents(qmap, rows)


def _anchor_digits(f: Poly, qmap: QuadMap) -> tuple[list[int], int]:
    """The row of a nonzero f, integer numerators [u_0, v_0, u_1, ...] over
    one denominator, not reduced: f expanded omega-adically, its digit at
    omega^j split at the anchor as u_j + v_j (x - a).

    All on integers: with f = N/D of degree m, omega = M/e and y = e x,
    e^2 omega(x) = y^2 + (p e) y + q e^2 is monic over the integers, so
    F(y) = e^m N(y/e) = sum (s_j + t_j y) (e^2 omega)^j has integer
    digits, found by repeated exact division in one list. Digit j is
    then (s_j + t_j e x) e^(2j) / (e^m D); at a = an/ad this gives
    u_j = (s_j ad + t_j e an) e^(2j) / (ad e^m D) and
    v_j = t_j e ad e^(2j) / (ad e^m D).
    """
    num = f._num
    m = len(num) - 1
    omega = qmap.omega
    e = omega._den
    lin, const = omega._num[1], omega._num[0] * e
    # one zero above the top, the t of the last digit when m is even
    buf = [c * e ** (m - j) for j, c in enumerate(num)] + [0]
    # each pass divides buf[k:] by y^2 + lin y + const in place: the
    # remainder is left in buf[k], buf[k + 1] and the quotient above it
    for k in range(0, m + 1, 2):
        for i in range(m, k + 1, -1):
            c = buf[i]
            if c:
                buf[i - 1] -= lin * c
                buf[i - 2] -= const * c
    an, ad = qmap.a.numerator, qmap.a.denominator
    row = []
    for k in range(0, m + 1, 2):
        s, t, w = buf[k], buf[k + 1] * e, e**k
        row += ((s * ad + t * an) * w, t * ad * w)
    return row, ad * f._den * e**m


def anchor_split(f: Poly, qmap: QuadMap) -> tuple[Poly, Poly]:
    """Unique (u, v) with f(x) = u(omega(x)) + (x - a) v(omega(x)): the
    parts of the row of f (`_anchor_digits`), each reduced once."""
    if not f._num:
        return ZERO, ZERO
    row, den = _anchor_digits(f, qmap)
    return _reduced(row[0::2], den), _reduced(row[1::2], den)


def decompose_oracle(polys: Sequence[Poly], qmap: QuadMap) -> QdComponents:
    """Recompute the decomposition by change of basis on materialized W_n.

    Completely independent of the recurrence path: only polynomial long
    division is involved. Consumes W_0..W_{2K+1} (a trailing even entry
    is ignored) and returns components up to index K.
    """
    if len(polys) < 2:
        raise InvalidSequenceError("need at least W_0 and W_1")
    _validate_mps(polys)
    rows = []
    for m, f in enumerate(polys[: len(polys) // 2 * 2]):
        rows.append(_reduced(*_anchor_digits(f, qmap)))
        if not _shape_ok(m, rows[-1]):
            raise InvalidSequenceError(f"split of W_{m} has wrong shape")
    return QdComponents(qmap, rows)


class NormalizedSecondary(Record):
    """A secondary component rewritten as a genuine MPS.

    offset k and leadings lambda_n satisfy seq[n + k] = lambda_n * mps[n]
    with mps monic of degree n.
    """

    offset: int
    leadings: tuple[Fraction, ...]
    mps: tuple[Poly, ...]


def normalize_secondary(
    seq: Sequence[Poly], role: str = "secondary"
) -> NormalizedSecondary | None:
    """Extract the monic sequence hidden in a secondary component.

    Returns None for the all-zero input: a null component is a meaningful
    outcome of a decomposition, not an error. Raises when degrees do not
    follow n - k for any constant offset k.
    """
    offset = next((i for i, f in enumerate(seq) if not f.is_zero), None)
    if offset is None:
        return None
    for i in range(offset, len(seq)):
        if seq[i].degree != i - offset:
            raise NotNormalizableError(
                f"{role}[{i}] has degree {seq[i].degree}, expected {i - offset}"
            )
    leadings = tuple(seq[i].leading for i in range(offset, len(seq)))
    mps = tuple((1 / lam) * f for lam, f in zip(leadings, seq[offset:]))
    return NormalizedSecondary(offset, leadings, mps)


def _relation_violations(
    components: QdComponents,
    scalars: Callable[[int], Sequence[Callable[[], Fraction]]],
) -> list[tuple[str, str, int]]:
    """Every (X, Y, n), n >= 1, at which a component X and its partner Y
    break the relation written out in `_mixed_scalars`, its unevaluated
    scalars at band index k being scalars(k), as far as every term is
    computed. A term whose polynomial factor is zero is skipped before
    its scalar is evaluated, and a term past the last scalar is dropped.

    On the rows it is one relation on either part c: the head term is
    c_m, X_n, X_{n-1}, X_{n-2} are c_{m-2}, c_{m-4}, c_{m-6}, and Y_+,
    Y_0, Y_- are c_{m-1}, c_{m-3}, c_{m-5}, at band index m - 2 and
    n = (m - 3) // 2. X is the component that part c is at m's parity,
    Y the one it is at the other."""
    # X, Y, the part c, and the first m, where n = 1
    rows = (("a", "R", 1, 6), ("R", "a", 1, 5), ("b", "P", 0, 5), ("P", "b", 0, 6))
    bad: list[tuple[str, str, int]] = []
    for xn, yn, part, first in rows:
        # c[-1], past the end, is the part of W_-1 = 0
        c = [pair[part] for pair in components.pairs] + [ZERO]
        for m in range(first, len(c) - 1, 2):
            terms = [(1, c[m]), (-1, _times_x(c[m - 2]))]
            terms += [
                (s(), c[m - i])
                for s, i in zip(scalars(m - 2), (2, 4, 6, 1, 3, 5))
                if not c[m - i].is_zero
            ]
            if not lincomb(terms).is_zero:
                bad.append((xn, yn, (m - 3) // 2))
    return bad


def third_order_violations(
    components: QdComponents,
    beta: Scalar,
    alpha1: Scalar,
    alpha2: Scalar,
    gamma: Scalar,
) -> list[tuple[str, int]]:
    """Check the constant-coefficient third-order recurrences.

    For the source family whose structure coefficients are the constants
    (beta, alpha_1, alpha_2, gamma) modulo parity, each component X of its
    decomposition must satisfy, for n >= 1,

        X_{n+1} = (x - omega(a) + (a - beta)(a + p + beta)
                   - alpha_2 - alpha_1) X_n
                  - (alpha_2 alpha_1 + gamma (p + 2 beta)) X_{n-1}
                  - gamma^2 X_{n-2},

    with the P sequence shifted one index up. Returns every violating
    (component name, n); perturbed inputs are expected to violate below
    their grace index.
    """
    beta, gamma = Fraction(beta), Fraction(gamma)
    alpha1, alpha2 = Fraction(alpha1), Fraction(alpha2)
    qmap = components.map
    c0 = (
        qmap.omega_at_anchor
        - (qmap.a - beta) * (qmap.a + qmap.p + beta)
        + alpha2
        + alpha1
    )
    mid = alpha2 * alpha1 + gamma * (qmap.p + 2 * beta)
    tail = gamma * gamma
    # zip stops after these three scalars, so the partner terms drop out
    # and what is left is exactly the third-order relation
    constants = (lambda: c0, lambda: mid, lambda: tail)
    bad = _relation_violations(components, lambda k: constants)
    return [(x, n) for x, _, n in bad]


def _mixed_scalars(
    qmap: QuadMap,
    beta: Callable[[int], Fraction],
    alpha: Callable[[int], Fraction],
    gamma: Callable[[int], Fraction],
    k: int,
) -> tuple[Callable[[], Fraction], ...]:
    """The scalars of the seven-term mixed relation at band index k,
    unevaluated and in the order of its terms:

        X_{n+1} - (x - c_0) X_n + c_1 X_{n-1} + c_2 X_{n-2}
                + c_3 Y_+ + c_4 Y_0 + c_5 Y_- = 0.

    c_0 = omega(a) - (a - beta_k)(a + p + beta_k) + alpha_{k+1} + alpha_k
    is the constant of the head factor. c_3, c_4 and c_5 weight the
    partner sequence Y and vanish for the unperturbed family.
    """
    a, p = qmap.a, qmap.p
    return (
        lambda: qmap.omega_at_anchor
        - (a - beta(k)) * (a + p + beta(k))
        + alpha(k + 1)
        + alpha(k),
        lambda: alpha(k) * alpha(k - 1) + gamma(k - 1) * (p + beta(k) + beta(k - 2)),
        lambda: gamma(k - 1) * gamma(k - 3),
        lambda: p + beta(k + 1) + beta(k),
        lambda: gamma(k) + gamma(k - 1) + alpha(k) * (p + beta(k) + beta(k - 1)),
        lambda: alpha(k) * gamma(k - 2) + gamma(k - 1) * alpha(k - 2),
    )


def mixed_relation_violations(
    components: QdComponents,
    beta: Callable[[int], Fraction],
    alpha: Callable[[int], Fraction],
    gamma: Callable[[int], Fraction],
) -> list[tuple[str, int]]:
    """Check the four seven-term identities tying components pairwise.

    They hold for the decomposition of every 2-orthogonal MPS with
    coefficients beta_n (n >= 0), alpha_n and gamma_n (n >= 1), for
    n >= 1 as far as the computed components reach. Terms whose
    polynomial factor is the zero sentinel are skipped before their
    scalar coefficient is evaluated, so gamma_0 is never consulted.
    """
    qmap = components.map
    bad = _relation_violations(
        components, lambda k: _mixed_scalars(qmap, beta, alpha, gamma, k)
    )
    return [(f"{x}-{y}", n) for x, y, n in bad]
