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
from dataclasses import dataclass

import numpy as np

from .groups import GroupCtx, is_prime, parse_ctx

__all__ = [
    "Dfn",
    "fourier",
    "inverse_fourier",
    "convolve",
    "exact_convolve",
    "dual_value_at_zero",
    "norms",
    "fourier_mean_norm",
    "Norms",
    "save_dfn",
    "load_dfn",
]

_DIRECT_LIMIT = 4096  # largest N for O(N^2) reference paths


class Dfn:
    """A finitely supported function on a group, stored as a dense array.

    The transform is cached on first use, so the values must not change
    after ``hat()``; a shared indicator such as ``SetA.indicator()`` has
    read-only values for that reason.
    """

    __slots__ = ("ctx", "values", "_hat")

    def __init__(self, ctx: GroupCtx, values):
        values = np.asarray(values)
        if values.shape != (ctx.N,):
            raise ValueError(f"expected {ctx.N} values, got shape {values.shape}")
        self.ctx = ctx
        self.values = values
        self._hat = None

    @property
    def tag(self) -> str:
        """'complex' or 'real', from the dtype of the values."""
        return "complex" if np.iscomplexobj(self.values) else "real"

    # constructors -------------------------------------------------------------
    @classmethod
    def zeros(cls, ctx):
        return cls(ctx, np.zeros(ctx.N))

    @classmethod
    def delta(cls, ctx, at: int = 0):
        v = np.zeros(ctx.N, dtype=np.int64)
        v[at % ctx.N] = 1
        return cls(ctx, v)

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
        if np.issubdtype(self.values.dtype, np.integer):
            return True
        if self.tag == "complex":
            return False
        return bool(np.all(self.values == np.round(self.values)))

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


def _character_matrix(ctx) -> np.ndarray:
    """W[x, xi] = conj(character(x, xi)), so that hat(h) = h @ W."""
    if ctx.N > _DIRECT_LIMIT:
        raise ValueError(f"direct transform limited to N <= {_DIRECT_LIMIT}")
    idx = ctx.elements()
    num, den = ctx.char_phase(idx[:, None], idx[None, :])
    return np.exp(-2j * np.pi * np.asarray(num) / den)


def fourier(h: Dfn, method: str = "fast") -> Dfn:
    """hat(h)(xi) = sum_x h(x) conj(character(x, xi)); 'direct' is the O(N^2) oracle."""
    if method == "fast":
        return Dfn(h.ctx, h.hat().copy())
    if method == "direct":
        return Dfn(h.ctx, h.values.astype(np.complex128) @ _character_matrix(h.ctx))
    raise ValueError(f"unknown method {method!r}")


def inverse_fourier(H: Dfn) -> Dfn:
    return Dfn(H.ctx, H.ctx.ifft(H.values.astype(np.complex128)))


_INT64_LIMIT = 1 << 63
_PACK_WIDTHS = (1, 2, 4, 8)  # bytes per packed digit
# Z_M route choice: the pairwise products are summed when there are at most
# this many per byte of the packed product, whose multiplication costs more
# than linear time in its bytes
_PAIRS_PER_BYTE = 8
_PAIR_BLOCK = 1 << 16  # pairwise products per scatter-add, to bound temporaries


def _abs_sum_max(v: np.ndarray) -> tuple[int, int]:
    """(sum |v|, max |v|) as Python ints, without int64 wraparound."""
    if not len(v):
        return 0, 0
    mx = max(int(v.max()), -int(v.min()))
    if mx * len(v) < _INT64_LIMIT:
        return int(np.abs(v).sum()), mx
    return sum(map(abs, v.tolist())), mx


def _support_arc(v: np.ndarray) -> tuple[int, np.ndarray]:
    """(start, arc) with arc[j] = v[(start + j) mod M]: the shortest cyclic
    arc holding the support of v, so a support that wraps past 0 stays short."""
    sup = np.flatnonzero(v)
    if len(sup) < 2:
        return (int(sup[0]) if len(sup) else 0), v[sup]
    gaps = np.diff(sup)
    i = int(gaps.argmax())
    if gaps[i] <= len(v) - sup[-1] + sup[0]:  # the widest gap is the one across 0
        return int(sup[0]), v[sup[0] : sup[-1] + 1]
    start = int(sup[i + 1])
    return start, np.concatenate((v[start:], v[: sup[i] + 1]))


def _pack(arc: np.ndarray, udt: np.dtype) -> int:
    """sum_j arc[j] * 2^(8 * udt.itemsize * j) as a Python int."""
    if arc.min() >= 0:
        return int.from_bytes(arc.astype(udt).tobytes(), "little")
    return _pack(np.maximum(arc, 0), udt) - _pack(np.maximum(-arc, 0), udt)


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


def dual_value_at_zero(ctx: GroupCtx, arrays) -> int:
    """(g_1 * ... * g_k)(0) = N^-1 sum_xi prod_i hat(g_i)(xi) on F_q^n, exactly.

    The dual side of the value at zero, with no partial convolution and no
    inverse transform: the forward transforms of `exact_convolve` modulo as
    many primes as the bound prod_i sum|g_i| needs, recombined by Garner's
    CRT into a Python int, so the value may pass 2^63.
    """
    p, axes = _vector_axes(ctx)
    arrays = [np.asarray(g, dtype=np.int64) for g in arrays]
    bound = math.prod(_abs_sum_max(g)[0] for g in arrays)
    if bound == 0:
        return 0
    primes = _ntt_primes(p, bound)
    residues = []
    for P in primes:
        prod = np.int64(1)
        for g in arrays:
            prod = prod * _ntt(g % P, p, axes, P) % P
        while len(prod) > 1:  # the sum mod P, p terms at a time
            prod = prod.reshape(-1, p).sum(axis=1) % P
        residues.append(prod * pow(ctx.N, -1, P) % P)
    digits, weights = _garner(residues, primes)
    return sum(int(v[0]) * w for v, w in zip(digits, weights))


def _pair_sums(arc1: np.ndarray, arc2: np.ndarray, n: int) -> np.ndarray:
    """Linear product of two arcs as an int64 scatter-add of the pairwise
    products, a block of rows of the sparser arc at a time."""
    nz1, nz2 = np.flatnonzero(arc1), np.flatnonzero(arc2)
    if len(nz1) > len(nz2):
        arc1, arc2, nz1, nz2 = arc2, arc1, nz2, nz1
    v1, v2 = arc1[nz1], arc2[nz2]
    linear = np.zeros(n, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // len(nz2))
    for i in range(0, len(nz1), rows):
        pos = nz1[i : i + rows, None] + nz2
        np.add.at(linear, pos.ravel(), (v1[i : i + rows, None] * v2).ravel())
    return linear


def _kronecker(arc1: np.ndarray, arc2: np.ndarray, n: int, width: int) -> np.ndarray:
    """Linear product of two arcs by one multiplication of Python ints packed
    with `width` bytes per digit."""
    # signed inputs add 2^(8w-1) to each digit before unpacking
    udt = np.dtype(f"<u{width}")
    product = _pack(arc1, udt) * _pack(arc2, udt)
    signed = arc1.min() < 0 or arc2.min() < 0
    top = 1 << (8 * width - 1)
    if signed:
        product += int.from_bytes(np.full(n, top, dtype=udt).tobytes(), "little")
    digits = np.frombuffer(product.to_bytes(n * width, "little"), dtype=udt)
    if signed:
        digits = digits ^ udt.type(top)
    return digits.view(f"<i{width}")


def exact_convolve(ctx: GroupCtx, g1, g2) -> np.ndarray:
    """(g1 * g2)(x) = sum_y g1(y) g2(x - y) in exact int64 arithmetic.

    Z_M: each input is trimmed to the shortest cyclic arc holding its
    support, and the linear product of the two arcs is folded mod M, so
    neither route pays for M.  Packed at w bytes per slot, w the width that
    holds the entry bound, the linear product takes B = w (L1 + L2 - 1)
    bytes.  When nnz(g1) nnz(g2) <= 8 B the pairwise products are summed by
    an int64 scatter-add, at a cost that follows the nonzero entries;
    otherwise both arcs are packed into Python ints and multiplied once
    (Kronecker substitution, Harvey, J. Symb. Comput. 2009), at a cost that
    follows the arc lengths however sparse they are.
    F_q^n: a number-theoretic transform (Pollard, Math. Comp. 1971)
    on the base-p digit view (Z_p)^(n r), axis by axis with a p x p kernel,
    modulo primes P = 1 (mod p) with p P^2 < 2^63, as many as make their
    product exceed twice the entry bound; the residues are recombined by
    Garner's CRT, centred.  Integer arithmetic only on every route.

    Raises OverflowError, before any work, when the entry bound
    min(sum|g1| max|g2|, sum|g2| max|g1|) is 2^63 or more.
    """
    g1 = np.asarray(g1, dtype=np.int64)
    g2 = np.asarray(g2, dtype=np.int64)
    cyclic = ctx.kind == "cyclic"
    if cyclic:
        (s1, g1), (s2, g2) = _support_arc(g1), _support_arc(g2)
    sum1, max1 = _abs_sum_max(g1)
    sum2, max2 = _abs_sum_max(g2)
    bound = min(sum1 * max2, sum2 * max1)
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"exact convolution entry bound {bound} is not below 2^63")
    if bound == 0:
        return np.zeros(ctx.N, dtype=np.int64)
    if not cyclic:
        return _ntt_convolve(ctx, g1, g2, bound)
    n = len(g1) + len(g2) - 1
    # digits of 8w - 1 bits hold every linear coefficient |c| <= bound
    width = next(w for w in _PACK_WIDTHS if bound.bit_length() < 8 * w)
    if np.count_nonzero(g1) * np.count_nonzero(g2) <= _PAIRS_PER_BYTE * n * width:
        linear = _pair_sums(g1, g2, n)
    else:
        linear = _kronecker(g1, g2, n, width)
    out = np.zeros(ctx.N, dtype=np.int64)
    pos, k = (s1 + s2) % ctx.N, 0
    while k < n:
        take = min(ctx.N - pos, n - k)
        out[pos : pos + take] += linear[k : k + take]
        pos, k = 0, k + take
    return out


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


@dataclass
class Norms:
    l1: float
    l2: float
    lp: float
    sup: float
    fourier_sup: float


def norms(h: Dfn, p: float = 2.0) -> Norms:
    """Physical-side norms as plain sums; fourier_sup = max |hat h|."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(h.values.astype(np.complex128 if h.tag == "complex" else np.float64))
    return Norms(
        l1=float(a.sum()),
        l2=float(np.sqrt((a**2).sum())),
        lp=float((a**p).sum() ** (1.0 / p)),
        sup=float(a.max()) if len(a) else 0.0,
        fourier_sup=float(np.abs(h.hat()).max()),
    )


def fourier_mean_norm(h: Dfn, p: float) -> float:
    """((1/N) sum_xi |hat h(xi)|^p)^(1/p) -- the dual-group mean L^p norm."""
    if p == np.inf:
        return float(np.abs(h.hat()).max())
    mags = np.abs(h.hat())
    return float(((mags**p).mean()) ** (1.0 / p))


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
        if all(("." not in s and "e" not in s and "E" not in s) for s in raw):
            vals = np.array([int(s) for s in raw], dtype=np.int64)
        else:
            vals = np.array([float(s) for s in raw])
    return Dfn(ctx, vals)
