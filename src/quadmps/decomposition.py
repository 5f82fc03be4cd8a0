"""Quadratic decomposition of a monic polynomial sequence.

Fix omega(x) = x^2 + p x + q and an anchor a. Every W_m splits uniquely
into even and odd parts relative to the anchor,

    W_{2n}(x)   = P_n(omega(x)) + (x - a) a_{n-1}(omega(x)),
    W_{2n+1}(x) = b_n(omega(x)) + (x - a) R_n(omega(x)),

with deg P_n = deg R_n = n (monic), deg a_n <= n, deg b_n <= n and the
sentinel a_{-1} = 0. The records (P_n, a_{n-1}; b_n, R_n) are produced
two ways that must agree exactly:

* decompose: the recurrence characterisation driven directly by the
  structure coefficients of {W_n}, never materializing W_n itself; each
  step walks one stored chi row, skips its zero entries and builds each
  component as one `lincomb`;
* decompose_oracle: change of basis on materialized W_n, by integer
  omega-adic division. Rescaled by the denominator e of omega, each W_n
  becomes an integer polynomial in y = e x and omega the monic integer
  quadratic e^2 omega, so one pass of exact divisions in a single list
  gives every degree-<=1 digit; each digit is split at the anchor, and
  each component is reduced once (`anchor_split`).

Because the split is unique, decompose_oracle is also the reconstruction
proof: `verify_case` compares its components of the materialized W_m
with those of decompose, and reads from them the identities that would
otherwise rebuild each W_m by composition with omega.

The recurrences of the components are checked by one loop over the four
(component, partner) rows, `_relation_violations`, with the scalars
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


def _at(seq: Sequence[Poly], n: int, what: str) -> Poly:
    """Sequence access with the n = -1 zero sentinel."""
    if n < 0:
        return ZERO
    if n >= len(seq):
        raise RangeError(f"{what}_{n} not computed (limit {len(seq) - 1})")
    return seq[n]


class QdComponents(Record):
    """The four component sequences of one quadratic decomposition."""

    map: QuadMap
    p_seq: tuple[Poly, ...]
    a_seq: tuple[Poly, ...]
    b_seq: tuple[Poly, ...]
    r_seq: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "p_seq", tuple(self.p_seq))
        object.__setattr__(self, "a_seq", tuple(self.a_seq))
        object.__setattr__(self, "b_seq", tuple(self.b_seq))
        object.__setattr__(self, "r_seq", tuple(self.r_seq))
        n = self.nmax
        if not (len(self.r_seq) == len(self.b_seq) == n + 1 and len(self.a_seq) == n):
            raise InvalidSequenceError(
                "component lengths must be P,R,b: nmax+1 and a: nmax"
            )

    @property
    def nmax(self) -> int:
        return len(self.p_seq) - 1

    def to_json(self) -> dict:
        return self.layout(poly_to_strings)

    def layout(self, leaf: Callable[[Poly], object] = lambda f: f) -> dict:
        """The to_json payload with each polynomial f written as leaf(f);
        by default the Poly itself, for a writer that formats each one
        only when it reaches it."""
        records = []
        for n in range(self.nmax + 1):
            records.append(
                {
                    "n": n,
                    "P": leaf(self.p_seq[n]),
                    "a_prev": leaf(_at(self.a_seq, n - 1, "a")),
                    "b": leaf(self.b_seq[n]),
                    "R": leaf(self.r_seq[n]),
                }
            )
        return {"map": self.map.to_json(), "nmax": self.nmax, "components": records}

    @staticmethod
    def from_json(data: dict) -> "QdComponents":
        """Load a payload in the form to_json writes, and nothing else:
        records n = 0..nmax each once, a declared nmax that matches them,
        P_n and R_n monic of degree n, deg b_n <= n, deg a_{n-1} <= n-1."""
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
            p_seq = [poly_from_strings(r["P"]) for r in records]
            b_seq = [poly_from_strings(r["b"]) for r in records]
            r_seq = [poly_from_strings(r["R"]) for r in records]
            a_prev = [poly_from_strings(r["a_prev"]) for r in records]
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
        for n in range(nmax + 1):
            p, r = p_seq[n], r_seq[n]
            if not (p.degree == r.degree == n and p.is_monic and r.is_monic):
                raise ParseError(f"record {n}: P and R must be monic of degree {n}")
            if b_seq[n].degree > n or a_prev[n].degree > n - 1:
                raise ParseError(
                    f"record {n}: need deg b <= {n} and deg a_prev <= {n - 1}"
                )
        return QdComponents(qmap, p_seq, a_prev[1:], b_seq, r_seq)


def decompose(
    sc: StructureCoefficients, qmap: QuadMap, nmax: int
) -> QdComponents:
    """Run the recurrence characterisation of the quadratic decomposition.

    Produces P_0..P_nmax, R_0..R_nmax, b_0..b_nmax and a_0..a_{nmax-1}
    from structure coefficients alone. Needs beta up to index 2*nmax and
    chi rows up to 2*nmax - 1.

    Each step walks one stored chi row. Column nu of either row feeds
    the components of index nu >> 1: an even nu weights (P, a_prev), an
    odd nu (b, R), so `cols[nu]` holds that pair and zip reads a row
    against it. Every new component is one `lincomb` built negated, the
    chi entries as stored and the few leading scalars negated, and the
    factor (x - omega(a)) enters as the terms x*f and -omega(a)*f.
    """
    if nmax < 0:
        raise RangeError("nmax must be >= 0")
    if sc.nmax < 2 * nmax:
        raise RangeError(
            f"need structure coefficients up to index {2 * nmax}, have {sc.nmax}"
        )
    a, wa = qmap.a, qmap.omega_at_anchor
    ap = a + qmap.p
    # (P_k, a_{k-1}) at column 2k and (b_k, R_k) at column 2k + 1
    cols: list[tuple[Poly, Poly]] = [(ONE, ZERO), (Poly.constant(a - sc.beta[0]), ONE)]
    for n in range(nmax):
        b_n, r_n = cols[2 * n + 1]
        beta = sc.beta[2 * n + 1]
        p_terms = [(-1, _times_x(r_n)), (wa, r_n), (beta - a, b_n)]
        a_terms = [(-1, b_n), (ap + beta, r_n)]
        for c, (f, g) in zip(sc.chi[2 * n], cols):
            if c:
                p_terms.append((c, f))
                a_terms.append((c, g))
        p_next, a_cur = -lincomb(p_terms), -lincomb(a_terms)
        cols.append((p_next, a_cur))

        beta = sc.beta[2 * n + 2]
        b_terms = [(beta - a, p_next), (-1, _times_x(a_cur)), (wa, a_cur)]
        r_terms = [(-1, p_next), (ap + beta, a_cur)]
        for c, (f, g) in zip(sc.chi[2 * n + 1], cols):
            if c:
                b_terms.append((c, f))
                r_terms.append((c, g))
        cols.append((-lincomb(b_terms), -lincomb(r_terms)))
    evens, odds = cols[0::2], cols[1::2]
    return QdComponents(
        qmap,
        [f for f, _ in evens],
        [g for _, g in evens[1:]],
        [f for f, _ in odds],
        [g for _, g in odds],
    )


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
    kmax = (len(polys) - 2) // 2
    p_seq: list[Poly] = []
    a_seq: list[Poly] = []
    b_seq: list[Poly] = []
    r_seq: list[Poly] = []
    for n in range(kmax + 1):
        u, v = anchor_split(polys[2 * n], qmap)
        if not (u.degree == n and u.is_monic and v.degree <= n - 1):
            raise InvalidSequenceError(f"even split of W_{2 * n} has wrong shape")
        p_seq.append(u)
        if n > 0:
            a_seq.append(v)
        u, v = anchor_split(polys[2 * n + 1], qmap)
        if not (v.degree == n and v.is_monic and u.degree <= n):
            raise InvalidSequenceError(f"odd split of W_{2 * n + 1} has wrong shape")
        b_seq.append(u)
        r_seq.append(v)
    return QdComponents(qmap, p_seq, a_seq, b_seq, r_seq)


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
    computed. A term whose polynomial factor is the zero sentinel is
    skipped before its scalar is evaluated, and a term past the last
    scalar is dropped."""
    c = components
    seqs = {"P": c.p_seq, "a": c.a_seq, "b": c.b_seq, "R": c.r_seq}
    # primary X against partner Y, k - 2n, and how far the indices of
    # X_{n+1} and of Y_+ sit above n + 1 (P runs one up against a, a one
    # down against R)
    rows = (
        ("a", "R", 2, 0, 0),
        ("R", "a", 1, 0, -1),
        ("b", "P", 1, 0, 0),
        ("P", "b", 2, 1, 0),
    )
    bad: list[tuple[str, str, int]] = []
    for xn, yn, k_off, x_up, y_up in rows:
        xs, ys = seqs[xn], seqs[yn]
        for n in range(1, min(len(xs) - 1 - x_up, len(ys) - 1 - y_up)):
            x = [_at(xs, n + 1 + x_up - i, xn) for i in range(4)]
            y = [_at(ys, n + 1 + y_up - i, yn) for i in range(3)]
            terms = [(1, x[0]), (-1, _times_x(x[1]))]
            terms += [
                (s(), f)
                for s, f in zip(scalars(2 * n + k_off), x[1:] + y)
                if not f.is_zero
            ]
            if not lincomb(terms).is_zero:
                bad.append((xn, yn, n))
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
