"""Quadratic decomposition of a monic polynomial sequence.

Fix omega(x) = x^2 + p x + q and an anchor a. Every W_m splits uniquely
as W_m(x) = u_m(omega(x)) + (x - a) v_m(omega(x)), and a decomposition
is held as these pairs (u_m, v_m). The four component sequences are
their parts at each parity,

    W_{2n}(x)   = P_n(omega(x)) + (x - a) a_{n-1}(omega(x)),
    W_{2n+1}(x) = b_n(omega(x)) + (x - a) R_n(omega(x)),

with deg P_n = deg R_n = n (monic), deg a_n <= n, deg b_n <= n and the
sentinel a_{-1} = v_0 = 0, one rule on the pairs (`_shape_ok`). The
pairs are produced two ways that must agree exactly:

* decompose: the MPS recurrence in omega-adic coordinates, driven by the
  structure coefficients of {W_n}, never materializing W_n itself; by
  x W = (a u + (omega - omega(a)) v)(omega) + (x - a)(u - (a + p) v)(omega),
  each step builds the pair of W_{m+2} from that of W_{m+1} and one
  stored chi row, skips its zero entries and builds each part as one
  `lincomb`;
* decompose_oracle: change of basis on materialized W_n, by integer
  omega-adic division. Rescaled by the denominator e of omega, each W_n
  becomes an integer polynomial in y = e x and omega the monic integer
  quadratic e^2 omega, so one pass of exact divisions in a single list
  gives every degree-<=1 digit; each digit is split at the anchor, and
  each part is reduced once (`anchor_split`).

Because the split is unique, decompose_oracle is also the reconstruction
proof: `verify_case` compares its components of the materialized W_m
with those of decompose, and reads from them the identities that would
otherwise rebuild each W_m by composition with omega.

The recurrences of the components are one relation on either part of
the pairs, checked by `_relation_violations`, with the scalars
`_mixed_scalars` of the seven-term mixed relations of any 2-orthogonal
input, or the three constants of the source family's third-order ones.

All component polynomials live in the omega-variable.
"""

from __future__ import annotations

from fractions import Fraction
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

# the record keys of the pairs of W_2n and W_2n+1
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


def _shape_ok(m: int, pair: Pair) -> bool:
    """Whether (u_m, v_m) has the shape of the split of a monic W_m: part
    m % 2 monic of degree m // 2, the other of degree at most (m - 1) // 2."""
    head, other = pair[m % 2], pair[1 - m % 2]
    return head.degree == m // 2 and head.is_monic and other.degree <= (m - 1) // 2


class QdComponents(Record):
    """One quadratic decomposition: the pair (u_m, v_m) of each W_m,
    m = 0..2 nmax + 1, with v_0 = a_{-1} = 0. The four component
    sequences are read-only views of the pairs: P_n and a_{n-1} are the
    parts of W_2n, b_n and R_n those of W_2n+1."""

    map: QuadMap
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) < 2 or len(self.pairs) % 2:
            raise InvalidSequenceError(f"need 2 nmax + 2 pairs, got {len(self.pairs)}")
        if not self.pairs[0][1].is_zero:
            raise InvalidSequenceError("v_0 = a_-1 must be zero")

    p_seq = property(lambda self: tuple(u for u, _ in self.pairs[0::2]))
    a_seq = property(lambda self: tuple(v for _, v in self.pairs[2::2]))
    b_seq = property(lambda self: tuple(u for u, _ in self.pairs[1::2]))
    r_seq = property(lambda self: tuple(v for _, v in self.pairs[1::2]))

    @property
    def nmax(self) -> int:
        return len(self.pairs) // 2 - 1

    def to_json(self) -> dict:
        return self.layout(poly_to_strings)

    def layout(self, leaf: Callable[[Poly], object] = lambda f: f) -> dict:
        """The to_json payload with each polynomial f written as leaf(f);
        by default the Poly itself, for a writer that formats each one
        only when it reaches it."""
        records = [
            {"n": n, "P": leaf(p), "a_prev": leaf(a), "b": leaf(b), "R": leaf(r)}
            for n, ((p, a), (b, r)) in enumerate(
                zip(self.pairs[0::2], self.pairs[1::2])
            )
        ]
        return {"map": self.map.to_json(), "nmax": self.nmax, "components": records}

    @staticmethod
    def from_json(data: dict) -> "QdComponents":
        """Load a payload in the form to_json writes, and nothing else:
        records n = 0..nmax each once, a declared nmax that matches them,
        and the pairs (P_n, a_{n-1}) and (b_n, R_n) of each record in the
        shape of a split (`_shape_ok`)."""
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
            pairs = [
                (poly_from_strings(r[u]), poly_from_strings(r[v]))
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
        for m, pair in enumerate(pairs):
            if not _shape_ok(m, pair):
                keys = _KEYS[m % 2]
                raise ParseError(
                    f"record {m // 2}: need {keys[m % 2]} monic of degree {m // 2}"
                    f" and deg {keys[1 - m % 2]} <= {(m - 1) // 2}"
                )
        return QdComponents(qmap, pairs)


def decompose(
    sc: StructureCoefficients, qmap: QuadMap, nmax: int
) -> QdComponents:
    """Run the MPS recurrence of {W_n} on the pairs (u_m, v_m).

    Produces the pairs of W_0..W_{2 nmax + 1} from structure coefficients
    alone. Needs beta up to index 2*nmax and chi rows up to 2*nmax - 1.

    W_{m+2} = (x - beta_{m+1}) W_{m+1} - sum_nu chi_{m,nu} W_nu, so by
    the identity for x W of the module docstring, with (u, v) the pair
    of W_{m+1}, W_{m+2} has the pair ((a - beta) u + (omega - omega(a)) v,
    u - (a + p + beta) v) less chi row m against the pairs so far. Each
    part is one `lincomb` built negated, the chi entries as stored and
    the few leading scalars negated, and the factor omega - omega(a)
    enters as the terms x*v and -omega(a)*v.
    """
    if nmax < 0:
        raise RangeError("nmax must be >= 0")
    if sc.nmax < 2 * nmax:
        raise RangeError(
            f"need structure coefficients up to index {2 * nmax}, have {sc.nmax}"
        )
    a, wa = qmap.a, qmap.omega_at_anchor
    ap = a + qmap.p
    pairs: list[Pair] = [(ONE, ZERO), (Poly.constant(a - sc.beta[0]), ONE)]
    for m in range(2 * nmax):
        u, v = pairs[-1]
        beta = sc.beta[m + 1]
        u_terms = [(beta - a, u), (-1, _times_x(v)), (wa, v)]
        v_terms = [(-1, u), (ap + beta, v)]
        for c, (f, g) in zip(sc.chi[m], pairs):
            if c:
                u_terms.append((c, f))
                v_terms.append((c, g))
        pairs.append((-lincomb(u_terms), -lincomb(v_terms)))
    return QdComponents(qmap, pairs)


def anchor_split(f: Poly, qmap: QuadMap) -> tuple[Poly, Poly]:
    """Unique (u, v) with f(x) = u(omega(x)) + (x - a) v(omega(x)).

    Expands f omega-adically, then splits each degree-<=1 digit at the
    anchor; digit j contributes u_j + v_j (x - a) at omega-power j.

    All on integers: with f = N/D of degree m, omega = M/e and y = e x,
    e^2 omega(x) = y^2 + (p e) y + q e^2 is monic over the integers, so
    F(y) = e^m N(y/e) = sum (s_j + t_j y) (e^2 omega)^j has integer
    digits, found by repeated exact division in one list. Digit j is
    then (s_j + t_j e x) e^(2j) / (e^m D); at a = an/ad this gives
    u_j = (s_j ad + t_j e an) e^(2j) / (ad e^m D) and
    v_j = t_j e^(2j+1) / (e^m D), and each of u and v is reduced once.
    """
    num = f._num
    if not num:
        return ZERO, ZERO
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
    u, v = [], []
    for k in range(0, m + 1, 2):
        s, t, w = buf[k], buf[k + 1] * e, e**k
        u.append((s * ad + t * an) * w)
        v.append(t * w)
    den = f._den * e**m
    return _reduced(u, ad * den), _reduced(v, den)


def decompose_oracle(polys: Sequence[Poly], qmap: QuadMap) -> QdComponents:
    """Recompute the decomposition by change of basis on materialized W_n.

    Completely independent of the recurrence path: only polynomial long
    division is involved. Consumes W_0..W_{2K+1} (a trailing even entry
    is ignored) and returns components up to index K.
    """
    if len(polys) < 2:
        raise InvalidSequenceError("need at least W_0 and W_1")
    _validate_mps(polys)
    pairs = []
    for m, f in enumerate(polys[: len(polys) // 2 * 2]):
        pairs.append(anchor_split(f, qmap))
        if not _shape_ok(m, pairs[-1]):
            raise InvalidSequenceError(f"split of W_{m} has wrong shape")
    return QdComponents(qmap, pairs)


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

    On the pairs it is one relation on either part c: the head term is
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
