"""Finite fields F_{p^r}, the two ambient group kinds, and their characters.

Group elements are handled as integer indices in [0, N).  The bijection is
part of the public contract: cyclic groups use the residue itself, vector
spaces over F_q use mixed-radix base-p digits (coordinate 0 least
significant, each coordinate holding r base-p digits in the power basis
1, y, ..., y^{r-1}).  All arithmetic helpers accept scalars or numpy arrays.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "FieldCtx",
    "GroupCtx",
    "CyclicCtx",
    "VectorCtx",
    "is_prime",
    "parse_ctx",
    "BUILTIN_MODULI",
]

# Monic irreducible moduli, little-endian coefficients, for the odd primes we
# ship ready-made.  Anything else must be supplied explicitly (and is checked).
BUILTIN_MODULI = {
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),      # y^2 + 1
    (3, 3): (1, 2, 0, 1),   # y^3 + 2y + 1
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),      # y^2 + 2
    (5, 3): (1, 1, 0, 1),   # y^3 + y + 1
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),      # y^2 + 1
    (7, 3): (2, 0, 0, 1),   # y^3 + 2
}


# Largest field order: mul_table, char_kernel and functions._ntt_kernel are
# q x q (p x p) arrays, 16 MB at most for the complex kernel at q = 2^10,
# where q = 10^4 would need 0.8 GB per int64 table.
_FIELD_LIMIT = 1 << 10


def _scalar(out):
    return out if out.ndim else int(out)


class _Radix:
    """Little-endian base-`base` digits of indices, `count` digits each.

    Split and join broadcast over a trailing digit axis; `add` and `scale`
    work digit-wise mod base and return Python ints for scalar input.
    `dilation` and `images` map every index at once without splitting any.
    """

    def __init__(self, base: int, count: int):
        self.base = base
        self.weights = base ** np.arange(count, dtype=np.int64)

    def split(self, i):
        return (np.asarray(i, dtype=np.int64)[..., None] // self.weights) % self.base

    def join(self, d):
        return (np.asarray(d, dtype=np.int64) % self.base) @ self.weights

    def add(self, i, j):
        return _scalar(self.join(self.split(i) + self.split(j)))

    def sub(self, i, j):
        return _scalar(self.join(self.split(i) - self.split(j)))

    def scale(self, c: int, i):
        return _scalar(self.join(int(c) % self.base * self.split(i)))

    def dilation(self, c: int) -> np.ndarray:
        """scale(c, x) for every index x in [0, base^count), in index order:
        the outer sum over the digit positions j of the tables
        (c d mod base) * weights[j] for d in [0, base), the most significant
        position outermost."""
        table = int(c) % self.base * np.arange(self.base, dtype=np.int64) % self.base
        out = np.zeros(1, dtype=np.int64)
        for w in self.weights:
            out = ((table * w)[:, None] + out).reshape(-1)
        return out

    def images(self, columns) -> np.ndarray:
        """digits(x) @ columns for every index x in [0, base^count), in index
        order, unreduced, shape (base^count, m) for `count` columns of
        length m: the outer sum over the digit positions j of the rows
        d * columns[j] for d in [0, base), the most significant position
        outermost."""
        columns = np.asarray(columns, dtype=np.int64)
        m = columns.shape[1]
        digit = np.arange(self.base, dtype=np.int64)[:, None, None]
        out = np.zeros((1, m), dtype=np.int64)
        for col in columns:
            out = (digit * col + out).reshape(self.base * len(out), m)
        return out


# Miller-Rabin with the first twelve prime bases decides primality exactly
# for every n below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at n >= 3.18e23."""
    n = int(n)
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """F_q = F_p[y]/(m(y)) with q = p^r; elements are indices in [0, q).

    Index e encodes the polynomial sum(d_j y^j) with d_j the base-p digits
    of e, little-endian.  All multiplicative structure comes from the powers
    C^0, ..., C^{r-1} of the companion matrix C of m, the matrix of x -> y*x
    in the power basis: a acts on digit vectors as M_a = sum_i a_i C^i.
    The q x q multiplication table, built from these powers, holds the
    digits M_a b; the trace is Tr(a) = tr(M_a) = sum_i a_i tr(C^i) mod p,
    since the field trace is the trace of the multiplication map (Lidl and
    Niederreiter, Finite Fields, ch. 2); and F_p[y]/(m) is a field exactly
    when the table has no zero divisors, which the constructor checks for
    r > 1 (so the table is built there; for r = 1 on first use).
    """

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is unsupported (odd q only)")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        if p**r > _FIELD_LIMIT:
            raise ValueError(
                f"q = {p**r} exceeds the desk-scale bound 2^10 = {_FIELD_LIMIT}: "
                "the multiplication table and the character and transform "
                "kernels hold q^2 entries each"
            )
        if modulus is None:
            try:
                modulus = BUILTIN_MODULI[(p, r)]
            except KeyError:
                raise ValueError(
                    f"no built-in modulus for p={p}, r={r}; supply one explicitly"
                ) from None
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r (little-endian)")
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self._radix = _Radix(p, r)
        # C: the shift y^j -> y^{j+1}, with y^r = -(m_0 + ... + m_{r-1} y^{r-1})
        C = np.eye(r, k=-1, dtype=np.int64)
        C[:, -1] = [-c % p for c in modulus[:r]]
        powers = [np.eye(r, dtype=np.int64)]
        for _ in range(r - 1):
            powers.append(C @ powers[-1] % p)
        self._companion_powers = np.stack(powers)
        self._char_kernel = {}
        if r > 1:
            zero = np.argwhere(self.mul_table[1:, 1:] == 0)
            if len(zero):
                a, b = (self.format_element(x) for x in zero[0] + 1)
                raise ValueError(f"modulus {modulus} is not irreducible mod {p}: "
                                 f"({a}) * ({b}) = 0 (little-endian digits)")

    # -- digit codecs ----------------------------------------------------------

    def digits(self, a):
        """Base-p digits of field indices, shape (..., r)."""
        return self._radix.split(a)

    def from_digits(self, d):
        return self._radix.join(d)

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        return self._radix.add(a, b)

    def neg(self, a):
        return self._radix.scale(-1, a)

    def sub(self, a, b):
        return self._radix.sub(a, b)

    def mul(self, a, b):
        return _scalar(self.mul_table[np.asarray(a, dtype=np.int64),
                                      np.asarray(b, dtype=np.int64)])

    def pow(self, a, e: int):
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        result = np.ones_like(np.asarray(a, dtype=np.int64))
        base = np.asarray(a, dtype=np.int64)
        while e:
            if e & 1:
                result = np.asarray(self.mul(result, base), dtype=np.int64)
            base = np.asarray(self.mul(base, base), dtype=np.int64)
            e >>= 1
        return _scalar(result)

    def inv(self, a):
        table = self.inv_table
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse")
        return _scalar(table[a])

    # -- cached tables -----------------------------------------------------------
    # each is shared by every caller, so it is read-only

    @functools.cached_property
    def mul_table(self):
        """Row a holds a * b for every b: the digits of b times M_a."""
        digits = self.digits(np.arange(self.q))
        mats = np.tensordot(digits, self._companion_powers, axes=1)
        table = np.empty((self.q, self.q), dtype=np.int64)
        for a in range(self.q):
            table[a] = self.from_digits(digits @ mats[a].T)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def inv_table(self):
        inv = np.zeros(self.q, dtype=np.int64)
        rows, cols = np.nonzero(self.mul_table == 1)
        inv[rows] = cols
        inv.flags.writeable = False
        return inv

    @functools.cached_property
    def trace_table(self):
        """Tr(a) = sum_i a_i tr(C^i) mod p, as an element of F_p."""
        traces = np.trace(self._companion_powers, axis1=1, axis2=2)
        table = self.digits(np.arange(self.q)) @ traces % self.p
        table.flags.writeable = False
        return table

    def trace(self, a):
        return _scalar(self.trace_table[np.asarray(a, dtype=np.int64)])

    def char_kernel(self, inverse: bool = False):
        """q x q matrix K[a, b] = exp(-+2*pi*i * Tr(ab)/p); the length-q DFT kernel."""
        key = bool(inverse)
        if key not in self._char_kernel:
            tr = self.trace_table[self.mul_table]
            sign = 1.0 if inverse else -1.0
            kernel = np.exp(sign * 2j * np.pi * tr / self.p)
            kernel.flags.writeable = False
            self._char_kernel[key] = kernel
        return self._char_kernel[key]

    # -- misc ----------------------------------------------------------------------

    def format_element(self, a) -> str:
        return ",".join(str(int(d)) for d in self.digits(int(a)))

    def parse_element(self, text: str) -> int:
        digs = [int(t) for t in text.split(",")]
        if len(digs) != self.r or any(not 0 <= d < self.p for d in digs):
            raise ValueError(f"bad field element {text!r} for F_{self.p}^{self.r}")
        return int(self.from_digits(np.array(digs)))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r}, modulus={self.modulus})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))


class GroupCtx:
    """Common interface of the two ambient groups; immutable after construction."""

    kind: str
    N: int
    # the integers act through Z_exponent: c acts invertibly iff
    # gcd(c, exponent) = 1 (M on Z_M, the characteristic p on F_q^n)
    exponent: int

    # index arithmetic -------------------------------------------------------
    def add(self, i, j):
        raise NotImplementedError

    def neg(self, i):
        raise NotImplementedError

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def scale_int(self, c: int, i):
        raise NotImplementedError

    def scale_field(self, s: int, i):
        raise ValueError("field-scalar action requires a vector-space context")

    def dilation(self, c: int) -> np.ndarray:
        """scale_int(c, x) for every index x in [0, N), in index order, built
        afresh on each call."""
        return np.asarray(self.scale_int(c, self.elements()))

    def elements(self):
        return np.arange(self.N, dtype=np.int64)

    # characters ---------------------------------------------------------------
    def char_phase(self, x, xi):
        """(numerator, denominator) with character = exp(2*pi*i*num/den)."""
        raise NotImplementedError

    def character(self, x, xi):
        num, den = self.char_phase(x, xi)
        out = np.exp(2j * np.pi * np.asarray(num) / den)
        return out if out.ndim else complex(out)

    # transforms (forward kernel conj(character)) -------------------------------
    def fft(self, values):
        raise NotImplementedError

    def ifft(self, values):
        raise NotImplementedError

    # text encodings --------------------------------------------------------------
    def format_element(self, idx) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


# Smallest M that CyclicCtx.fft splits.  The split beats pocketfft only where
# pocketfft picks Bluestein for M, which it does for large p but not for a
# cheap radix-p pass at small M: at 3723 = 51*73 the split took 0.27 ms
# against 0.15 ms.  From 4096 up to 2*10^5 it was faster on 239 of 250 lengths
# that qualify (median 2.7x), and slower, by at most 0.4 ms, only where m and
# p are close and M < 10^4, such as 5893 = 71*83 (numpy 2.4, 2-vCPU Xeon).
_PRIME_FACTOR_FLOOR = 4096


@functools.lru_cache(maxsize=8)
def _prime_factor_maps(M: int):
    """Good-Thomas maps (Good 1958; Thomas 1963) for M = m*p, p^2 > M, m > 1.

    Returns (gather, order): the m x p DFT of x[gather] (shape (m, p),
    gather[n1, n2] = (n1*p + n2*m) mod M), flattened and indexed by order,
    is the length-M DFT of x.  Output (k1, k2) holds k with k = k1 mod m and
    k = k2 mod p (the CRT).  None when M has no such split.
    """
    r, d = M, 2
    while d * d <= r:
        while r % d == 0:
            r //= d
        d += 1
    # trial division never reaches a prime p with p^2 > M, so r is that p
    p = r
    if p * p <= M or p == M:
        return None
    m = M // p
    n1 = np.arange(m, dtype=np.int64)[:, None]
    n2 = np.arange(p, dtype=np.int64)[None, :]
    gather = (n1 * p + n2 * m) % M
    crt = (n1 * (p * pow(p, -1, m)) + n2 * (m * pow(m, -1, p))) % M
    order = np.empty(M, dtype=np.int64)
    order[crt.reshape(-1)] = np.arange(M, dtype=np.int64)
    gather.flags.writeable = False
    order.flags.writeable = False
    return gather, order


class CyclicCtx(GroupCtx):
    kind = "cyclic"

    def __init__(self, M: int):
        M = int(M)
        if M < 1:
            raise ValueError("cyclic order must be positive")
        if M >= 1 << 31:
            raise ValueError("cyclic order exceeds the desk-scale bound 2^31")
        self.M = M
        self.N = M
        self.exponent = M

    def _reduce(self, y):
        # y - (y // M) * M is y % M: numpy's floor division by a constant is
        # faster than its remainder
        return _scalar(y - y // self.M * self.M)

    def add(self, i, j):
        return self._reduce(np.asarray(i, dtype=np.int64) + np.asarray(j, dtype=np.int64))

    def neg(self, i):
        return self._reduce(-np.asarray(i, dtype=np.int64))

    def scale_int(self, c: int, i):
        return self._reduce(int(c) % self.M * np.asarray(i, dtype=np.int64))

    def char_phase(self, x, xi):
        num = (np.asarray(x, dtype=np.int64) * np.asarray(xi, dtype=np.int64)) % self.M
        return (num if num.ndim else int(num)), self.M

    def fft(self, values):
        """Length-M DFT; the prime-factor split when M qualifies, else np.fft.

        pocketfft runs a length M whose largest prime p has p^2 > M either
        with a radix-p pass or, when its cost estimate says so, as one
        Bluestein transform of length about 2M.  From _PRIME_FACTOR_FLOOR up,
        such an M = m*p with m > 1 runs as the twiddle-free m x p transform
        of the Good-Thomas map: m transforms of length p and p of length m,
        which agree with np.fft.fft to rounding.  Every other M (prime,
        p^2 <= M, or below the floor) gets the bits of np.fft.fft.
        """
        return self._transform(values, np.fft.fft, np.fft.fft2)

    def ifft(self, values):
        """Inverse of fft (normalized by 1/M), by the same route."""
        return self._transform(values, np.fft.ifft, np.fft.ifft2)

    def _transform(self, values, dft, dft2):
        maps = _prime_factor_maps(self.M) if self.M >= _PRIME_FACTOR_FLOOR else None
        if maps is None:
            return dft(values)
        gather, order = maps
        return dft2(np.asarray(values)[gather]).reshape(-1)[order]

    def format_element(self, idx) -> str:
        return str(int(idx) % self.M)

    def parse_element(self, text: str) -> int:
        v = int(text)
        if not 0 <= v < self.M:
            raise ValueError(f"element {v} outside [0, {self.M})")
        return v

    def describe(self) -> str:
        return f"cyclic;M={self.M}"

    def __repr__(self):
        return f"CyclicCtx(M={self.M})"

    def __eq__(self, other):
        return isinstance(other, CyclicCtx) and self.M == other.M

    def __hash__(self):
        return hash(("cyclic", self.M))


class VectorCtx(GroupCtx):
    kind = "vector"

    def __init__(self, field: FieldCtx, n: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        N = field.q**n
        if N > 1 << 48:
            raise ValueError(f"group order q^n = {N} exceeds 2^48")
        self.field = field
        self.n = n
        self.N = int(N)
        self.exponent = field.p
        self._radix = _Radix(field.p, n * field.r)
        self._coords = _Radix(field.q, n)

    def digits(self, i):
        """Base-p digits of group indices, shape (..., n r); the group adds
        them digit-wise mod p."""
        return self._radix.split(i)

    def from_digits(self, d):
        return self._radix.join(d)

    def coords(self, i):
        """Field-element indices of the n coordinates, shape (..., n)."""
        return self._coords.split(i)

    def from_coords(self, c):
        return self._coords.join(c)

    def add(self, i, j):
        return self._radix.add(i, j)

    def neg(self, i):
        return self._radix.scale(-1, i)

    def sub(self, i, j):
        return self._radix.sub(i, j)

    def scale_int(self, c: int, i):
        return self._radix.scale(c, i)

    def dilation(self, c: int) -> np.ndarray:
        return self._radix.dilation(c)

    def scale_field(self, s: int, i):
        """Multiply every coordinate by the F_q scalar with index s."""
        return _scalar(self.from_coords(self.field.mul(np.int64(s), self.coords(i))))

    def dot(self, x, xi):
        """Standard F_q dot product of the coordinate vectors."""
        cx = self.coords(x)
        cxi = self.coords(xi)
        prod = np.asarray(self.field.mul(cx, cxi), dtype=np.int64)
        acc = prod[..., 0]
        for j in range(1, self.n):
            acc = self.field.add(acc, prod[..., j])
        return acc if np.asarray(acc).ndim else int(acc)

    def char_phase(self, x, xi):
        tr = self.field.trace(self.dot(x, xi))
        return tr, self.field.p

    def fft(self, values):
        return self._transform(values, inverse=False)

    def ifft(self, values):
        return self._transform(values, inverse=True) / self.N

    def _transform(self, values, inverse: bool):
        q, n = self.field.q, self.n
        kernel = self.field.char_kernel(inverse)
        arr = np.asarray(values, dtype=np.complex128).reshape((q,) * n)
        for ax in range(n):
            arr = np.moveaxis(np.tensordot(kernel, arr, axes=([1], [ax])), 0, ax)
        return arr.reshape(-1)

    def format_element(self, idx) -> str:
        cs = self.coords(int(idx))
        return " ".join(self.field.format_element(int(c)) for c in cs)

    def parse_element(self, text: str) -> int:
        parts = text.split()
        if len(parts) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(parts)}")
        cs = np.array([self.field.parse_element(p) for p in parts])
        return int(self.from_coords(cs))

    def describe(self) -> str:
        mod = ",".join(str(c) for c in self.field.modulus)
        return f"vector;p={self.field.p};r={self.field.r};n={self.n};mod={mod}"

    def __repr__(self):
        return f"VectorCtx(F_{self.field.q}^{self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, VectorCtx)
            and self.field == other.field
            and self.n == other.n
        )

    def __hash__(self):
        return hash(("vector", self.field, self.n))


def parse_ctx(text: str) -> GroupCtx:
    """Inverse of GroupCtx.describe()."""
    kind, *parts = text.strip().split(";")
    if kind not in ("cyclic", "vector"):
        raise ValueError(f"unknown group encoding {text!r}")
    kv = dict(p.split("=", 1) for p in parts)
    try:
        if kind == "cyclic":
            return CyclicCtx(int(kv["M"]))
        modulus = (
            tuple(int(c) for c in kv["mod"].split(",")) if "mod" in kv else None
        )
        return VectorCtx(FieldCtx(int(kv["p"]), int(kv["r"]), modulus), int(kv["n"]))
    except KeyError as exc:
        raise ValueError(f"{kind} encoding needs {exc.args[0]}=") from None
