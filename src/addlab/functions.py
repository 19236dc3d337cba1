"""Dense functions on a group context: Fourier transform, convolution, norms.

Conventions (shared by both group kinds, dual identified with the group):

    hat(h)(xi) = sum_x h(x) * conj(character(x, xi))
    inverse has the 1/N factor
    (h1 * h2)(x) = sum_y h1(y) h2(x - y)

Physical-side norms are plain sums; Fourier-side norms are means over the
dual group, so Parseval reads sum_x |h|^2 = (1/N) sum_xi |hat h|^2.
"""

from __future__ import annotations

import functools
import math
import operator
import re

import numpy as np

from .groups import GroupCtx, is_prime, parse_ctx

__all__ = [
    "Dfn",
    "fourier",
    "character_matrix",
    "inverse_fourier",
    "convolve",
    "exact_convolve",
    "values_at_zero",
    "fourier_mean_norm",
    "save_dfn",
    "load_dfn",
]

_DIRECT_LIMIT = 4096  # largest N for O(N^2) reference paths


class Dfn:
    """A finitely supported function on a group, stored as a dense array.

    The transform, its dual moments (``dual_moment(p)``) and the answer of
    ``is_integer_valued()`` are cached on first use, so the values must not
    change after any of them is asked; a shared indicator such as
    ``SetA.indicator()`` has read-only values for that reason.  A Dfn built
    from others (``f - F``, say) asks afresh, and one given its transform by
    ``_with_hat`` starts with no moments.
    """

    __slots__ = ("ctx", "values", "_hat", "_moments", "_integer")

    def __init__(self, ctx: GroupCtx, values):
        values = np.asarray(values)
        if values.shape != (ctx.N,):
            raise ValueError(f"expected {ctx.N} values, got shape {values.shape}")
        self.ctx = ctx
        self.values = values
        self._hat = None
        self._moments = {}
        self._integer = None

    @property
    def tag(self) -> str:
        """'complex' or 'real', from the dtype of the values."""
        return "complex" if np.iscomplexobj(self.values) else "real"

    # constructors -------------------------------------------------------------
    @classmethod
    def zeros(cls, ctx):
        return cls(ctx, np.zeros(ctx.N))

    @classmethod
    def delta(cls, ctx):
        return cls.indicator(ctx, [0])

    @classmethod
    def constant(cls, ctx, c=1.0):
        return cls(ctx, np.full(ctx.N, c))

    @classmethod
    def indicator(cls, ctx, indices):
        v = np.zeros(ctx.N, dtype=np.int64)
        if len(indices):
            v[np.asarray(indices, dtype=np.int64)] = 1
        return cls(ctx, v)

    # basic queries -------------------------------------------------------------
    def is_integer_valued(self) -> bool:
        """Whether every value is an integer, whatever the dtype (bool
        included); the O(N) test of float values runs once."""
        if self._integer is None:
            kind = self.values.dtype.kind
            self._integer = kind in "biu" or (
                kind != "c" and bool(np.all(self.values == np.round(self.values))))
        return self._integer

    def support(self) -> np.ndarray:
        return np.nonzero(self.values)[0]

    def mass(self):
        return self.values.sum()

    def hat(self) -> np.ndarray:
        """Cached fast transform of the values; read-only, since every caller
        shares it."""
        if self._hat is None:
            self._hat = self.ctx.fft(self.values.astype(np.complex128))
            self._hat.flags.writeable = False
        return self._hat

    def _with_hat(self, hat: np.ndarray) -> Dfn:
        """Attach a transform the caller already knows (by linearity, say), so
        that ``hat()`` returns it without transforming; read-only likewise."""
        hat.flags.writeable = False
        self._hat = hat
        self._moments = {}
        return self

    def dual_moment(self, p: float) -> float:
        """max |hat h| for p = inf, and otherwise (1/N) sum_xi |hat h(xi)|^p
        over the whole dual group, read off one xi of each pair {xi, -xi}
        when the values are real.  Memoized per p beside the transform; only
        the scalar is kept, so each new p takes |hat h| afresh."""
        m = self._moments.get(p)
        if m is None:
            real = self.tag == "real"
            mags = np.abs(self.hat()[_dual_domain(self.ctx, real)])
            m = float(mags.max() if p == np.inf else _dual_mean(self.ctx, mags**p, real))
            self._moments[p] = m
        return m

    # arithmetic (pointwise) ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Dfn):
            if other.ctx != self.ctx:
                raise ValueError("group context mismatch")
            return other.values
        return other

    def __add__(self, other):
        return Dfn(self.ctx, self.values + self._coerce(other))

    def __sub__(self, other):
        return Dfn(self.ctx, self.values - self._coerce(other))

    def __mul__(self, other):
        return Dfn(self.ctx, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Dfn(self.ctx, -self.values)

    def translate(self, c: int):
        """x -> h(x - c)."""
        idx = self.ctx.sub(self.ctx.elements(), int(c))
        out = np.empty_like(self.values)
        out[self.ctx.elements()] = self.values[idx]
        return Dfn(self.ctx, out)

    def __repr__(self):
        return f"Dfn({self.ctx!r}, tag={self.tag}, mass={self.mass()})"


def character_matrix(ctx) -> np.ndarray:
    """W[x, xi] = conj(character(x, xi)), so that hat(h) = h @ W; the rows
    of a (k, N) array H transform together as H @ W, on one matrix."""
    if ctx.N > _DIRECT_LIMIT:
        raise ValueError(f"direct transform limited to N <= {_DIRECT_LIMIT}")
    idx = ctx.elements()
    num, den = ctx.char_phase(idx[:, None], idx[None, :])
    return np.exp(-2j * np.pi * np.asarray(num) / den)


def fourier(h: Dfn) -> Dfn:
    """hat(h)(xi) = sum_x h(x) conj(character(x, xi)); the O(N^2) sum itself is
    h.values @ character_matrix(h.ctx)."""
    return Dfn(h.ctx, h.hat().copy())


def inverse_fourier(H: Dfn) -> Dfn:
    return Dfn(H.ctx, H.ctx.ifft(H.values.astype(np.complex128)))


# -- real functions: the Hermitian symmetry hat h(-xi) = conj hat h(xi) ----------------


def _negated(ctx, v: np.ndarray) -> np.ndarray:
    """v(-xi) for every xi.  -xi negates the one residue of Z_M and each
    base-p digit of F_q^n = (Z_p)^(n r), so along each axis of that digit
    view index 0 stays and the others reverse."""
    shape = (ctx.N,) if ctx.kind == "cyclic" else (ctx.field.p,) * (ctx.n * ctx.field.r)
    w = v.reshape(shape)
    for ax in range(len(shape)):
        head = (slice(None),) * ax
        w = np.concatenate((w[head + (slice(0, 1),)], w[head + (slice(None, 0, -1),)]), axis=ax)
    return w.reshape(-1)


def _pair_scale(a: np.ndarray, b: np.ndarray):
    """The power of two s = 2^e that brings s n(b) within a factor 2 of
    n(a), for n(v) = sqrt(||v||_1 ||v||_2), or None when either is 0.
    Scaling by it is exact.  ||v||_1 of a complex v is taken over its real
    and imaginary parts, within a factor sqrt(2) of sum |v|, to save the
    moduli.

    Each half of a paired transform picks up rounding error in proportion
    to the larger output, so the outputs' sups should match.  The sup of a
    transform lies between its root mean square, ||v||_2 by Parseval, and
    ||v||_1 (up to the transform's 1/N); n is the geometric mean of these
    bounds, so a misjudged ratio costs at most N^(1/4) rounding units of a
    half's sup.  Either bound alone can cost N^(1/2): the l1 norm for signed
    noise beside delta_0, the l2 norm for a flat output beside a spike.
    """
    def n(v):
        v = np.ascontiguousarray(v, dtype=np.result_type(v, np.float64)).view(np.float64)
        return math.sqrt(float(np.abs(v).sum()) * math.sqrt(float(np.square(v).sum())))

    na, nb = n(a), n(b)
    if not na or not nb:
        return None
    return math.ldexp(1.0, math.frexp(na)[1] - math.frexp(nb)[1])


def _real_pair_hats(h1: Dfn, h2: Dfn):
    """Memoize the transforms of two real functions from one complex one.

    With z = h1 + i s h2, hat z = hat h1 + i s hat h2, and a real h has
    hat h(-xi) = conj hat h(xi), so hat h1 = (hat z + conj hat z(-xi)) / 2
    and hat h2 = (hat z - conj hat z(-xi)) / (2 i s) (Sorensen, Jones,
    Heideman and Burrus, IEEE Trans. ASSP 35, 1987).  s = `_pair_scale`
    matches the two norms, so a small h2 keeps its relative accuracy beside
    a large h1.  A function with a memoized transform, or with no nonzero
    value, is transformed alone.
    """
    if h1.ctx != h2.ctx or "complex" in (h1.tag, h2.tag):
        raise ValueError("paired transforms take two real functions on one group")
    s = _pair_scale(h1.values, h2.values)
    if s is None or h1._hat is not None or h2._hat is not None:
        h1.hat(), h2.hat()
        return
    z = h1.ctx.fft(h1.values + 1j * (s * h2.values))
    z_neg = np.conjugate(_negated(h1.ctx, z))
    hat1 = z + z_neg
    hat1 *= 0.5
    z -= z_neg
    z *= -0.5j / s
    h1._with_hat(hat1)
    h2._with_hat(z)


def _real_pair_convolutions(pair1, pair2):
    """(h1 * h2, h3 * h4) for real functions h_i on one group, from one
    complex inverse transform.

    The spectra S1 = hat h1 hat h2 and S2 = hat h3 hat h4 are Hermitian,
    S(-xi) = conj S(xi), so both inverses are real, and the inverse of
    S1 + i s S2 holds the first in its real part and s times the second in
    its imaginary part (s as in `_real_pair_hats`; a zero spectrum has the
    zero inverse).  S2 is folded into S1 in place, so one spectrum is held
    while it is inverted, as for a single convolution.
    """
    (h1, h2), (h3, h4) = pair1, pair2
    if any(h.tag == "complex" for h in (h1, h2, h3, h4)):
        raise ValueError("paired convolutions take real functions")
    ctx = h1.ctx
    z = h1.hat() * h2.hat()
    S2 = h3.hat() * h4.hat()
    s = _pair_scale(z, S2)
    if s is None:
        return tuple(ctx.ifft(S).real if S.any() else np.zeros(ctx.N) for S in (z, S2))
    S2 *= 1j * s
    z += S2
    del S2
    z = ctx.ifft(z)
    return z.real, z.imag / s


def _dual_domain(ctx, real: bool):
    """The xi that a dual sum reads: every xi, or, when every input is real,
    one xi from each pair {xi, -xi}, 0 first.  On Z_M that is the slice
    [0, M//2], which ends at the other self-conjugate xi = M/2 when M is
    even.  On F_q^n (p odd, so only 0 is its own negative) it is 0 and the
    xi whose leading base-p digit d, at position j, is below p/2, since -xi
    leads with p - d at j: the ranges [p^j, (p + 1)/2 p^j)."""
    if not real:
        return slice(None)
    if ctx.kind == "cyclic":
        return slice(0, ctx.N // 2 + 1)
    p = ctx.field.p
    return np.concatenate([np.zeros(1, dtype=np.int64)] + [
        np.arange(p**j, (p + 1) // 2 * p**j) for j in range(ctx.n * ctx.field.r)])


def _dual_mean(ctx, values: np.ndarray, real: bool):
    """(1/N) sum_xi F(xi) over the whole dual group, from F on
    `_dual_domain(ctx, real)`.  When real, F(-xi) = conj F(xi), as for any
    product of transforms of real functions: each pair {xi, -xi} adds
    2 Re F(xi) and each self-conjugate xi adds F(xi) once, and the mean is a
    float."""
    if not real:
        return values.sum() / ctx.N
    v = values.real
    once = v[0] + (v[-1] if ctx.kind == "cyclic" and ctx.N % 2 == 0 else 0.0)
    return float((2.0 * v.sum() - once) / ctx.N)


_INT64_LIMIT = 1 << 63
_PAIR_BLOCK = 1 << 16  # pairwise products per scatter-add, to bound temporaries


def _as_int64(v) -> np.ndarray:
    """Integer values as int64.  Raises OverflowError naming 2^63 when an
    entry of a dtype that int64 does not hold (uint64, float, object) reaches
    it in magnitude, where numpy's cast would wrap it."""
    v = np.asarray(v)
    if (not np.can_cast(v.dtype, np.int64) and v.size
            and np.abs(v).max() >= _INT64_LIMIT):
        raise OverflowError(f"entry {np.abs(v).max()} is not below 2^63 in magnitude")
    return v.astype(np.int64, copy=False)


def _abs_sum_max(v: np.ndarray) -> tuple[int, int]:
    """(sum |v|, max |v|) as Python ints, without int64 wraparound."""
    if not len(v):
        return 0, 0
    mx = max(int(v.max()), -int(v.min()))
    if mx * len(v) < _INT64_LIMIT:
        return int(np.abs(v).sum()), mx
    return sum(map(abs, v.tolist())), mx


@functools.cache
def _ntt_prime(p: int, i: int) -> int:
    """The i-th largest prime P = 1 (mod 2p) with p P^2 < 2^63, so that a
    contraction of p products of residues mod P stays below 2^63."""
    if i:
        P = _ntt_prime(p, i - 1) - 2 * p
    else:
        cap = math.isqrt((_INT64_LIMIT - 1) // p)
        P = cap - (cap - 1) % (2 * p)
    while not is_prime(P):
        P -= 2 * p
    return P


def _ntt_primes(p: int, bound: int) -> list:
    """The first NTT primes for p, as many as multiply to more than 2 * bound."""
    primes = []
    while math.prod(primes) <= 2 * bound:
        primes.append(_ntt_prime(p, len(primes)))
    return primes


@functools.cache
def _ntt_kernel(p: int, P: int) -> np.ndarray:
    """K[a, b] = omega^(ab) mod P for a primitive p-th root of unity omega;
    read-only, since the cache shares it."""
    omega = next(w for w in (pow(x, (P - 1) // p, P) for x in range(2, P)) if w != 1)
    powers = np.array([pow(omega, j, P) for j in range(p)], dtype=np.int64)
    kernel = powers[np.outer(np.arange(p), np.arange(p)) % p]
    kernel.flags.writeable = False
    return kernel


def _ntt(v: np.ndarray, p: int, axes: int, P: int, inverse: bool = False) -> np.ndarray:
    """Transform mod P of v, entries in [0, P), over (Z_p)^axes, axis by axis.
    The inverse uses omega^(-ab), which is row -b of K, without the 1/N.

    Each pass contracts the least significant base-p digit and makes it the
    most significant one, so after `axes` passes the digit order is restored.
    """
    kernel = _ntt_kernel(p, P)
    rows = -np.arange(p) % p if inverse else slice(None)
    for _ in range(axes):
        v = (kernel @ v.reshape(-1, p).T)[rows].ravel() % P
    return v


def _garner(residues: list, primes: list) -> tuple[list, list]:
    """Balanced mixed-radix digits of y from y mod P_i (Garner, 1959).

    Returns digits v_i with |v_i| <= (P_i - 1) / 2 and weights
    W_i = P_1 ... P_{i-1} such that y = sum_i v_i W_i; this is exact for every
    |y| < (P_1 ... P_t) / 2.
    """
    digits, weights, W = [], [], 1
    for r, P in zip(residues, primes):
        u = r
        for v, w in zip(digits, weights):
            u = (u - w % P * v) % P
        u = u * pow(W, -1, P) % P
        digits.append(np.where(u > P // 2, u - P, u))
        weights.append(W)
        W *= P
    return digits, weights


def _vector_axes(ctx) -> tuple[int, int]:
    """(p, n r): F_q^n is additively (Z_p)^(n r), the base-p digit view."""
    if ctx.kind != "vector":
        raise ValueError("the modular transform runs on F_q^n only")
    return ctx.field.p, ctx.n * ctx.field.r


def _ntt_convolve(ctx, g1: np.ndarray, g2: np.ndarray, bound: int) -> np.ndarray:
    p, axes = _vector_axes(ctx)
    primes = _ntt_primes(p, bound)
    residues = []
    for P in primes:
        prod = _ntt(g1 % P, p, axes, P) * _ntt(g2 % P, p, axes, P) % P
        residues.append(_ntt(prod, p, axes, P, inverse=True) * pow(ctx.N, -1, P) % P)
    digits, weights = _garner(residues, primes)
    # |y| <= bound < 2^63: summing the digits mod 2^64 and reading the sum as
    # int64 is exact, although a single term may pass 2^63
    out = np.zeros(ctx.N, dtype=np.uint64)
    for v, w in zip(digits, weights):
        out += v.view(np.uint64) * np.uint64(w % 2**64)
    return out.view(np.int64)


def _dual_values_at_zero(ctx: GroupCtx, arrays, products) -> list:
    """`values_at_zero` on F_q^n: N^-1 sum_xi prod hat(arrays[i])(c xi) per
    product, since the pushforward under x -> c x has the transform
    xi -> hat g(c xi).  So each array is transformed once per prime, with no
    partial convolution and no inverse transform, and a slot only gathers
    that transform at c xi, through the per-digit `ctx.dilation(c)` built
    once per call and coefficient.  The primes are as many as the largest
    bound prod sum|arrays[i]| over the products needs, and Garner's CRT
    recombines the residues into Python ints, so a value may pass 2^63.
    """
    p, axes = _vector_axes(ctx)
    norms = [_abs_sum_max(g)[0] for g in arrays]
    bound = max((math.prod(norms[i] for i, _ in prod) for prod in products), default=0)
    primes = _ntt_primes(p, bound)
    products = [[(i, c % p) for i, c in prod] for prod in products]
    slots = {slot for prod in products for slot in prod}
    at = {c: ctx.dilation(c) for c in {c for _, c in slots} - {1}}
    residues = []
    for P in primes:
        hats = [_ntt(g % P, p, axes, P) for g in arrays]
        dilated = {(i, c): hats[i] if c == 1 else hats[i][at[c]] for i, c in slots}
        total = np.ones((len(products), ctx.N), dtype=np.int64)
        for row, prod in zip(total, products):
            for slot in prod:
                row *= dilated[slot]
                row %= P
        while total.shape[1] * P >= _INT64_LIMIT:  # fold p terms at a time
            total = total.reshape(len(products), -1, p).sum(axis=2) % P
        residues.append(total.sum(axis=1) % P * pow(ctx.N, -1, P) % P)
    digits, weights = _garner(residues, primes)
    return [sum(int(v[j]) * w for v, w in zip(digits, weights))
            for j in range(len(products))]


def _nonzeros(v: np.ndarray) -> tuple:
    """The sorted pair (points, values) of the nonzero entries of v."""
    pts = np.flatnonzero(v)
    return pts, v[pts]


def _dense(ctx: GroupCtx, pair: tuple) -> np.ndarray:
    """The int64 array of length N that holds the values of a sorted pair."""
    out = np.zeros(ctx.N, dtype=np.int64)
    out[pair[0]] = pair[1]
    return out


def _pair_sums(M: int, a: tuple, b: tuple) -> tuple:
    """Product on Z_M of two sorted pairs: the pairwise sums of their points,
    each with the product of its two values, scatter-added into one int64
    accumulator, a block of rows of the shorter pair at a time, and folded
    mod M."""
    (p1, v1), (p2, v2) = sorted((a, b), key=lambda pair: len(pair[0]))
    acc = np.zeros(2 * M, dtype=np.int64)  # two points below M sum below 2M
    rows = max(1, _PAIR_BLOCK // len(p2))
    for i in range(0, len(p1), rows):
        np.add.at(acc, (p1[i : i + rows, None] + p2).ravel(),
                  (v1[i : i + rows, None] * v2).ravel())
    return _nonzeros(acc[:M] + acc[M:])


def _exact_product(ctx: GroupCtx, a: tuple, b: tuple) -> tuple:
    """The convolution of two functions given as sorted pairs (points, int64
    values), as the sorted pair of its nonzero values, by `exact_convolve`'s
    routes.  Raises OverflowError, before any work, when the entry bound
    min(sum|a| max|b|, sum|b| max|a|) is 2^63 or more.
    """
    sum1, max1 = _abs_sum_max(a[1])
    sum2, max2 = _abs_sum_max(b[1])
    bound = min(sum1 * max2, sum2 * max1)
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"exact convolution entry bound {bound} is not below 2^63")
    if bound == 0:
        return _nonzeros(np.zeros(0, dtype=np.int64))
    if ctx.kind == "cyclic":
        return _pair_sums(ctx.N, a, b)
    return _nonzeros(_ntt_convolve(ctx, _dense(ctx, a), _dense(ctx, b), bound))


def exact_convolve(ctx: GroupCtx, g1, g2) -> np.ndarray:
    """(g1 * g2)(x) = sum_y g1(y) g2(x - y) in exact int64 arithmetic.

    Z_M: one route for every input.  The pairwise sums of the two supports,
    each with the product of its two values, are scatter-added into one
    int64 accumulator and folded mod M, so the cost follows nnz(g1) nnz(g2),
    plus O(M) to clear and read the accumulator, and not the arcs the
    supports span.  Two dense inputs at large M cost about M^2 products that
    way; no caller multiplies such a pair.
    F_q^n: a number-theoretic transform (Pollard, Math. Comp. 1971)
    on the base-p digit view (Z_p)^(n r), axis by axis with a p x p kernel,
    modulo primes P = 1 (mod p) with p P^2 < 2^63, as many as make their
    product exceed twice the entry bound; the residues are recombined by
    Garner's CRT, centred.  Integer arithmetic only on every route.

    Raises OverflowError, before any work, when an entry or the entry bound
    min(sum|g1| max|g2|, sum|g2| max|g1|) is 2^63 or more.
    """
    a, b = _nonzeros(_as_int64(g1)), _nonzeros(_as_int64(g2))
    return _dense(ctx, _exact_product(ctx, a, b))


def _pushforward(ctx: GroupCtx, indices, coeff: int, weights: np.ndarray) -> tuple:
    """g(y) = sum of the int64 weights of the x in `indices` with coeff * x = y,
    exactly, as the sorted pair (points, values) of its nonzero values.
    Points that coeff merges (gcd(coeff, M) > 1, say) are summed.

    Raises OverflowError when sum |weights| is 2^63 or more, since an entry
    of g could then wrap in int64.
    """
    bound = _abs_sum_max(weights)[0]
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"pushforward entry bound {bound} is not below 2^63")
    y = np.asarray(ctx.scale_int(coeff, indices), dtype=np.int64)
    order = np.argsort(y)
    y, weights = y[order], weights[order]
    starts = np.flatnonzero(np.diff(y, prepend=-1))  # the first of each run
    sums = np.add.reduceat(weights, starts)
    keep = sums != 0
    return y[starts][keep], sums[keep]


def _memo_product(ctx: GroupCtx, key: tuple, memo: dict) -> tuple:
    """The product of the pushforwards of the slots in the sorted `key`, as a
    sorted pair: the `_exact_product` of the products of its two halves,
    memoized so that keys share partial products.  `memo` starts with the
    empty key (delta_0) and every one-slot key.  It is passed in, not held by
    a nested function, so that it goes with the call that made it rather
    than with the next run of the cyclic garbage collector."""
    if key not in memo:
        h = len(key) // 2
        memo[key] = _exact_product(ctx, _memo_product(ctx, key[:h], memo),
                                   _memo_product(ctx, key[h:], memo))
    return memo[key]


def values_at_zero(ctx: GroupCtx, arrays, products) -> list:
    """Exact values at zero of products of pushforwards, one Python int per
    product.

    A product is a list of slots (i, c), and its value is
    (g_1 * ... * g_m)(0) over the pushforwards g(y) = sum_{c x = y} arrays[i](x)
    of integer arrays; the empty product is delta_0, of value 1.
    F_q^n: the dual sum N^-1 sum_xi prod hat(arrays[i])(c xi) modulo primes
    (Pollard, Math. Comp. 1971), recombined by Garner's CRT.  Each array is
    transformed once per prime, whatever the number of products, and each
    coefficient c != 1 reads it through one `ctx.dilation(c)` per call, so
    a caller that puts all its counts over the same arrays into one call
    transforms each array once.
    Z_M: each distinct slot's pushforward is built once, as a sorted pair.
    A product's sorted slots split in halves, each half the memoized
    `_exact_product` of its own halves, and the two halves meet in an inner
    product in Python ints: each point y of one meets -y among the sorted
    points of the other.  A product that holds an empty pushforward is 0,
    with no product taken.

    Raises OverflowError when an entry is 2^63 or more in magnitude and, on
    Z_M, when a pushforward or a partial product has an entry bound of 2^63
    or more; a value itself may pass 2^63.
    """
    arrays = [_as_int64(g) for g in arrays]
    if ctx.kind == "vector":
        return _dual_values_at_zero(ctx, arrays, products)
    supports = [np.flatnonzero(g) for g in arrays]
    memo = {(): (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))}
    for i, c in dict.fromkeys(slot for prod in products for slot in prod):
        memo[(i, c),] = _pushforward(ctx, supports[i], c, arrays[i][supports[i]])
    values = []
    for prod in products:
        key = tuple(sorted(prod))
        if any(not len(memo[slot,][0]) for slot in key):
            values.append(0)
            continue
        h = len(key) // 2
        (pa, va), (pb, vb) = (_memo_product(ctx, half, memo) for half in (key[:h], key[h:]))
        neg = np.asarray(ctx.neg(pa))
        at = np.searchsorted(pb, neg)
        hit = at < len(pb)
        hit[hit] = pb[at[hit]] == neg[hit]
        values.append(sum(map(operator.mul, va[hit].tolist(), vb[at[hit]].tolist())))
    return values


def convolve(h1: Dfn, h2: Dfn) -> Dfn:
    """(h1 * h2)(x) = sum_y h1(y) h2(x - y).

    Integer-valued inputs are convolved exactly by ``exact_convolve``, and the
    result is int64; other inputs are multiplied in Fourier space.
    """
    if h1.ctx != h2.ctx:
        raise ValueError("group context mismatch")
    ctx = h1.ctx
    if h1.is_integer_valued() and h2.is_integer_valued():
        return Dfn(ctx, exact_convolve(ctx, h1.values, h2.values))
    vals = ctx.ifft(h1.hat() * h2.hat())
    return Dfn(ctx, vals if "complex" in (h1.tag, h2.tag) else vals.real)


def fourier_mean_norm(h: Dfn, p: float) -> float:
    """((1/N) sum_xi |hat h(xi)|^p)^(1/p), the dual-group mean L^p norm, and
    sup |hat h| for p = inf: the p-th root of ``h.dual_moment(p)``, so it is
    taken once per function and p."""
    m = h.dual_moment(p)
    return m if p == np.inf else float(m ** (1.0 / p))


# -- serialization -------------------------------------------------------------


def save_dfn(h: Dfn, path):
    with open(path, "w") as fh:
        fh.write(f"ctx={h.ctx.describe()} tag={h.tag}\n")
        if h.tag == "complex":
            for v in h.values.astype(np.complex128):
                fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")
        elif np.issubdtype(h.values.dtype, np.integer):
            for v in h.values:
                fh.write(f"{int(v)}\n")
        else:
            for v in h.values:
                fh.write(f"{float(v)!r}\n")


def load_dfn(path) -> Dfn:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split(" "))
        ctx = parse_ctx(fields["ctx"])
        tag = fields["tag"]
        rows = [line.split() for line in fh if line.strip()]
    if tag == "complex":
        vals = np.array([complex(float(a), float(b)) for a, b in rows])
    else:
        raw = [r[0] for r in rows]
        if all(re.fullmatch(r"[+-]?[0-9]+", s) for s in raw):
            vals = np.array([int(s) for s in raw], dtype=np.int64)
        else:
            vals = np.array([float(s) for s in raw])
    return Dfn(ctx, vals)
