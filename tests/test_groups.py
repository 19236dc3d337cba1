"""Field/group arithmetic against hand-rolled polynomial oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addlab import groups
from addlab.functions import Dfn, character_matrix, fourier, inverse_fourier
from addlab.groups import (
    BUILTIN_MODULI,
    CyclicCtx,
    FieldCtx,
    VectorCtx,
    is_prime,
    parse_ctx,
)


def poly_mul_mod(a, b, modulus, p):
    """Schoolbook oracle on digit lists, independent of the FieldCtx path."""
    r = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # long division by the monic modulus
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(r + 1):
                prod[k - r + j] = (prod[k - r + j] - c * modulus[j]) % p
    out = prod[:r] + [0] * (r - len(prod))
    return [v % p for v in out[:r]]


def frobenius_trace(digs, modulus, p):
    """a + a^p + ... + a^{p^{r-1}} by square-and-multiply over the oracle."""
    r = len(modulus) - 1
    acc, frob = list(digs), list(digs)
    for _ in range(r - 1):
        out = [1] + [0] * (r - 1)
        e, base = p, list(frob)
        while e:
            if e & 1:
                out = poly_mul_mod(out, base, modulus, p)
            base = poly_mul_mod(base, base, modulus, p)
            e >>= 1
        frob = out
        acc = [(x + y) % p for x, y in zip(acc, frob)]
    return acc


def has_low_factor(modulus, p):
    """Trial division: does a monic factor of degree 1..r//2 divide the modulus?"""
    r = len(modulus) - 1
    for d in range(1, r // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rem = list(modulus)
            for k in range(r, d - 1, -1):  # long division by the monic low + y^d
                c = rem[k]
                for j, fj in enumerate(low + (1,)):
                    rem[k - d + j] = (rem[k - d + j] - c * fj) % p
            if not any(rem[:d]):
                return True
    return False


# y^5 + 2y + 1 and y^6 + y + 2 over F_3, past the built-in degrees
F3_5_MODULUS = (1, 2, 0, 0, 0, 1)
F3_6_MODULUS = (2, 1, 0, 0, 0, 0, 1)


class TestFieldCtx:
    def test_trace_examples_f9(self):
        F9 = FieldCtx(3, 2)  # F_3[y]/(y^2+1)
        one = 1
        y = int(F9.from_digits(np.array([0, 1])))
        assert F9.trace(one) == 2          # 1 + 1^3
        assert F9.trace(y) == 0            # y + y^3 = y + 2y = 0
        assert F9.trace(0) == 0

    def test_trace_additive_and_nontrivial(self):
        for p, r in [(3, 2), (5, 2), (7, 3)]:
            F = FieldCtx(p, r)
            rng = np.random.default_rng(p * r)
            a = rng.integers(0, F.q, size=50)
            b = rng.integers(0, F.q, size=50)
            lhs = F.trace_table[np.asarray(F.add(a, b))]
            rhs = (F.trace_table[a] + F.trace_table[b]) % p
            assert np.array_equal(lhs, rhs)
            assert F.trace_table.any(), "trace must not vanish identically"

    def test_cached_tables_are_read_only(self):
        # every caller shares them, so a write would corrupt all field arithmetic
        F = FieldCtx(3, 2)
        for table in (F.mul_table, F.inv_table, F.trace_table,
                      F.char_kernel(), F.char_kernel(inverse=True)):
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0

    def test_trace_by_frobenius_oracle(self):
        F = FieldCtx(3, 3)
        mod = list(F.modulus)
        for a in range(F.q):
            acc = frobenius_trace([int(d) for d in F.digits(a)], mod, F.p)
            assert all(v == 0 for v in acc[1:]), "trace must land in F_p"
            assert F.trace(a) == acc[0]

    def test_mul_against_oracle(self):
        for p, r in [(3, 2), (3, 3), (5, 2), (7, 2)]:
            F = FieldCtx(p, r)
            mod = list(F.modulus)
            rng = np.random.default_rng(p + r)
            for _ in range(60):
                a, b = (int(x) for x in rng.integers(0, F.q, size=2))
                da = [int(d) for d in F.digits(a)]
                db = [int(d) for d in F.digits(b)]
                expect = poly_mul_mod(da, db, mod, p)
                assert [int(d) for d in F.digits(F.mul(a, b))] == expect

    def test_scalar_example_f9(self):
        F9 = FieldCtx(3, 2)
        y = int(F9.from_digits(np.array([0, 1])))
        assert F9.mul(y, y) == 2  # y^2 = -1 = 2 mod (y^2+1)

    def test_inverses(self):
        F = FieldCtx(5, 2)
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_builtin_moduli_irreducible(self):
        for (p, r), mod in BUILTIN_MODULI.items():
            FieldCtx(p, r, mod)  # construction runs the check

    def test_rejects_reducible(self):
        with pytest.raises(ValueError, match="root|irreducible"):
            FieldCtx(3, 2, (0, 0, 1))  # y^2 has root 0
        with pytest.raises(ValueError, match="root|irreducible"):
            FieldCtx(5, 2, (4, 0, 1))  # y^2 + 4 = (y+1)(y+4) mod 5

    def test_rejects_char_2_and_nonprime(self):
        with pytest.raises(ValueError):
            FieldCtx(2, 1, (0, 1))
        with pytest.raises(ValueError):
            FieldCtx(9, 1)

    def test_rejects_q_past_table_bound_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"bound 2\^10 = 1024"):
                FieldCtx(9973)  # one 9973 x 9973 int64 table is 0.8 GB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert FieldCtx(1021, 1, (0, 1)).q == 1021  # the largest prime under the bound

    def test_degree_4_irreducibility_split(self):
        # (y^2+1)^2 over F_3 has no roots but is reducible
        sq = (1, 0, 2, 0, 1)
        with pytest.raises(ValueError, match="irreducible"):
            FieldCtx(3, 4, sq)

    def test_rootless_reducible_degree_5(self):
        # (y^2+1)(y^3+2y+1) over F_3: no root, no quadratic-squared shape
        with pytest.raises(ValueError, match=r"\(1, 2, 1, 0, 0, 1\) is not irreducible mod 3"):
            FieldCtx(3, 5, (1, 2, 1, 0, 0, 1))

    def test_accepts_exactly_the_irreducible_moduli(self):
        for p, degrees in ((3, (2, 3, 4)), (5, (2, 3))):
            for r in degrees:
                for low in itertools.product(range(p), repeat=r):
                    modulus = low + (1,)
                    if has_low_factor(modulus, p):
                        with pytest.raises(ValueError, match="not irreducible"):
                            FieldCtx(p, r, modulus)
                    else:
                        assert FieldCtx(p, r, modulus).modulus == modulus

    @pytest.mark.parametrize("r, modulus", [(5, F3_5_MODULUS), (6, F3_6_MODULUS)])
    def test_degrees_past_four(self, r, modulus):
        assert not has_low_factor(modulus, 3)
        F = FieldCtx(3, r, modulus)
        mod = list(modulus)
        rng = np.random.default_rng(r)
        for a, b in rng.integers(0, F.q, size=(200, 2)):
            da = [int(d) for d in F.digits(int(a))]
            db = [int(d) for d in F.digits(int(b))]
            assert [int(d) for d in F.digits(F.mul(int(a), int(b)))] == \
                poly_mul_mod(da, db, mod, 3)
        for a in range(F.q):
            acc = frobenius_trace([int(d) for d in F.digits(a)], mod, 3)
            assert acc[1:] == [0] * (r - 1) and F.trace(a) == acc[0]
        units = np.arange(1, F.q)
        assert np.all(F.mul(units, F.inv(units)) == 1)

    def test_pow(self):
        for p, r, modulus in [(3, 2, None), (5, 2, None), (3, 5, F3_5_MODULUS)]:
            F = FieldCtx(p, r, modulus)
            units = np.arange(1, F.q)
            assert np.all(F.pow(units, F.q - 1) == 1)
            assert np.all(F.pow(np.arange(F.q), 0) == 1)
            assert F.pow(0, 0) == 1 and F.pow(0, 3) == 0
            for e in (1, 2, 7, F.q):
                assert np.array_equal(F.pow(units, -e), F.pow(F.inv(units), e))
            with pytest.raises(ZeroDivisionError):
                F.pow(0, -1)


class TestGroupCtx:
    def test_cyclic_ops(self):
        Z5 = CyclicCtx(5)
        assert Z5.add(3, 4) == 2
        assert Z5.neg(2) == 3
        assert Z5.scale_int(-1, 2) == 3
        # add and neg reduce any int64 input as Python's % does: negative
        # inputs, inputs at or past M, M = 1 and the largest M
        for M in (1, 5, 2**31 - 1):
            Z = CyclicCtx(M)
            xs = [-(2**40), -M - 1, -M, -1, 0, 1, M - 1, M, M + 1, 2 * M + 3, 2**40]
            arr = np.array(xs)
            assert Z.neg(arr).tolist() == [-x % M for x in xs]
            assert Z.add(arr[:, None], arr).tolist() == [[(x + y) % M for y in xs]
                                                         for x in xs]
            for x in xs:
                assert Z.neg(x) == -x % M and type(Z.neg(x)) is int
                assert Z.add(x, -7) == (x - 7) % M and type(Z.add(x, -7)) is int

    def test_vector_ops(self):
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        a = ctx.parse_element("1 2")
        b = ctx.parse_element("2 2")
        assert ctx.format_element(ctx.add(a, b)) == "0 1"

    def test_scalar_field_action(self):
        ctx = VectorCtx(FieldCtx(3, 2), 1)
        y = ctx.field.parse_element("0,1")
        vy = ctx.parse_element("0,1")
        assert ctx.format_element(ctx.scale_field(y, vy)) == "2,0"  # y*y = 2

    def test_character_values(self):
        Z8 = CyclicCtx(8)
        # oracle: direct complex exponential e(4/8) = -1
        assert Z8.character(2, 2) == pytest.approx(-1 + 0j, abs=1e-12)
        F3 = VectorCtx(FieldCtx(3, 1), 1)
        assert F3.character(1, 1) == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)
        assert F3.character(2, 0) == pytest.approx(1 + 0j, abs=1e-12)

    def test_character_modulus_one(self):
        for ctx in (CyclicCtx(12), VectorCtx(FieldCtx(3, 2), 2)):
            idx = ctx.elements()
            vals = ctx.character(idx[:, None], idx[None, :])
            assert np.allclose(np.abs(vals), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_character_homomorphism(self, xraw, yraw, xiraw):
        for ctx in (CyclicCtx(24), VectorCtx(FieldCtx(5, 1), 2),
                    VectorCtx(FieldCtx(3, 2), 1)):
            x, y, xi = xraw % ctx.N, yraw % ctx.N, xiraw % ctx.N
            lhs = ctx.character(ctx.add(x, y), xi)
            rhs = ctx.character(x, xi) * ctx.character(y, xi)
            assert abs(lhs - rhs) < 1e-10

    def test_character_symmetry(self):
        for ctx in (CyclicCtx(15), VectorCtx(FieldCtx(3, 2), 2)):
            rng = np.random.default_rng(7)
            for _ in range(40):
                x, xi = (int(v) for v in rng.integers(0, ctx.N, size=2))
                assert ctx.character(x, xi) == pytest.approx(ctx.character(xi, x))

    def test_orthogonality_exhaustive(self):
        for ctx in (CyclicCtx(21), VectorCtx(FieldCtx(3, 1), 3),
                    VectorCtx(FieldCtx(3, 2), 2)):
            idx = ctx.elements()
            for xi in range(min(ctx.N, 30)):
                total = ctx.character(idx, np.int64(xi)).sum()
                if xi == 0:
                    assert total == pytest.approx(ctx.N)
                else:
                    assert abs(total) <= 1e-8 * ctx.N

    def test_index_bijection(self):
        # F_3^7, F_9^2, F_27^1, F_5^3, F_49^2 against a Python-int digit oracle
        rng = np.random.default_rng(11)
        for p, r, n in [(3, 1, 7), (3, 2, 2), (3, 3, 1), (5, 1, 3), (7, 2, 2)]:
            F = FieldCtx(p, r)
            ctx = VectorCtx(F, n)
            idx = ctx.elements()
            digs = ctx._radix.split(idx)
            expect = [[i // p**j % p for j in range(n * r)] for i in range(ctx.N)]
            assert digs.tolist() == expect
            assert np.array_equal(ctx._radix.join(digs), idx)
            cs = ctx.coords(idx)
            assert np.array_equal(ctx.from_coords(cs), idx)
            for j in range(n):
                assert np.array_equal(cs[:, j], F.from_digits(digs[:, j * r:(j + 1) * r]))
            fidx = np.arange(F.q)
            assert F.digits(fidx).tolist() == [
                [a // p**j % p for j in range(r)] for a in range(F.q)
            ]
            assert np.array_equal(F.from_digits(F.digits(fidx)), fidx)
            jdx = rng.permutation(idx)
            assert np.array_equal(ctx.sub(idx, jdx), ctx.add(idx, ctx.neg(jdx)))
            fjdx = rng.permutation(fidx)
            assert np.array_equal(F.sub(fidx, fjdx), F.add(fidx, F.neg(fjdx)))
            x, y = (int(v) for v in rng.integers(0, ctx.N, size=2))
            assert ctx.sub(x, y) == ctx.add(x, ctx.neg(y))
            assert F.sub(1, F.q - 1) == F.add(1, F.neg(F.q - 1))
            for out in (ctx.add(x, y), ctx.neg(x), ctx.sub(x, y), ctx.scale_int(2, x),
                        ctx.scale_field(1, x), F.add(1, 2), F.neg(1), F.sub(1, 2)):
                assert type(out) is int

    def test_scale_int_large_multiplier(self):
        # c * i must not wrap in int64; Python ints are the oracle
        Z = CyclicCtx(2**31 - 1)
        c, xs = 2**33 + 1, [2**31 - 2, 0, 1, 12345, 2**30]
        assert Z.scale_int(c, xs[0]) == c * xs[0] % Z.M == 2147483642
        assert Z.scale_int(c, np.array(xs)).tolist() == [c * x % Z.M for x in xs]
        ctx = VectorCtx(FieldCtx(3, 1), 2)

        def oracle(c, x):
            return sum(c * (x // 3**j % 3) % 3 * 3**j for j in range(2))

        c, xs = 2**62 + 1, list(range(ctx.N))
        assert ctx.scale_int(c, 5) == oracle(c, 5) == 7
        assert ctx.scale_int(c, np.array(xs)).tolist() == [oracle(c, x) for x in xs]
        assert ctx.scale_int(-c, np.array(xs)).tolist() == [oracle(-c, x) for x in xs]

    @pytest.mark.parametrize("ctx", [
        VectorCtx(FieldCtx(3, 1), 5), VectorCtx(FieldCtx(3, 1), 7),
        VectorCtx(FieldCtx(5, 1), 3), VectorCtx(FieldCtx(7, 1), 3),
        VectorCtx(FieldCtx(3, 2), 3), VectorCtx(FieldCtx(5, 2), 2),
        CyclicCtx(12), CyclicCtx(35),
    ], ids=repr)
    def test_dilation_is_scale_int_on_every_index(self, ctx):
        # the whole-group dilation, built from per-digit tables on F_q^n,
        # against scale_int's split and join of each index
        idx = ctx.elements()
        for c in [*range(-ctx.exponent, 2 * ctx.exponent), 2**62 + 1, -(2**62 + 1)]:
            out = ctx.dilation(c)
            assert out.dtype == np.int64
            assert np.array_equal(out, ctx.scale_int(c, idx))
        if ctx.kind == "cyclic":
            assert ctx.dilation(-5).tolist() == [-5 * x % ctx.M for x in range(ctx.M)]

    @pytest.mark.parametrize("base, count, m", [(3, 5, 2), (5, 3, 4), (7, 2, 0), (3, 0, 3)])
    def test_radix_images_are_digits_times_columns(self, base, count, m):
        radix = groups._Radix(base, count)
        columns = np.random.default_rng(base * count + m).integers(-9, 9, size=(count, m))
        idx = np.arange(base**count)
        assert np.array_equal(radix.images(columns), radix.split(idx) @ columns)

    def test_text_roundtrip(self):
        ctx = VectorCtx(FieldCtx(3, 2), 2)
        s = ctx.format_element(ctx.parse_element("1,2 0,1"))
        assert s == "1,2 0,1"
        ctx2 = parse_ctx(ctx.describe())
        assert ctx2 == ctx
        Z = parse_ctx(CyclicCtx(55).describe())
        assert Z == CyclicCtx(55)

    def test_order_overflow_rejected(self):
        with pytest.raises(ValueError, match="2\\^48"):
            VectorCtx(FieldCtx(7, 3), 20)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    sieve = np.ones(10**5, dtype=bool)
    sieve[:2] = False
    for f in range(2, 317):
        sieve[f * f::f] = False
    assert [n for n in range(10**5) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    # Carmichael numbers and strong pseudoprimes to the bases 2..7 and 2..23
    for n in (561, 1105, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 1753413037):
        assert is_prime(n)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(2**79)


def test_field_scalar_on_cyclic_is_usage_error():
    import pytest as _pytest

    with _pytest.raises(ValueError, match="vector-space"):
        CyclicCtx(9).scale_field(1, 2)


def test_parse_ctx_defaults_builtin_modulus():
    ctx = parse_ctx("vector;p=3;r=2;n=1")
    assert ctx.field.modulus == BUILTIN_MODULI[(3, 2)]


class TestPrimeFactorTransform:
    """CyclicCtx.fft/ifft: the Good-Thomas split against its references."""

    @staticmethod
    def _values(M, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(M) + 1j * rng.standard_normal(M)

    @pytest.mark.parametrize("M", [10, 21, 57, 171, 865])
    def test_split_below_floor_against_definition(self, monkeypatch, M):
        monkeypatch.setattr(groups, "_PRIME_FACTOR_FLOOR", 0)
        assert groups._prime_factor_maps(M) is not None
        h = Dfn(CyclicCtx(M), self._values(M, M))
        direct = h.values @ character_matrix(h.ctx)
        fast = fourier(h).values
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-9 * M)
        np.testing.assert_allclose(inverse_fourier(Dfn(h.ctx, direct)).values,
                                   h.values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(h.ctx.ifft(h.ctx.fft(h.values)), h.values,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [9217, 12565, 49423, 136363])
    def test_split_against_pocketfft(self, M):
        ctx = CyclicCtx(M)
        assert groups._prime_factor_maps(M) is not None
        x = self._values(M, M)
        ref = np.fft.fft(x)
        got = ctx.fft(x)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        inv = ctx.ifft(x)
        ref_inv = np.fft.ifft(x)
        assert np.abs(inv - ref_inv).max() <= 1e-13 * np.abs(ref_inv).max()
        assert np.abs(ctx.ifft(got) - x).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("M", [
        16759,   # prime
        36865,   # 5 * 73 * 101: largest prime squared is below M
        3723,    # 51 * 73 qualifies, but lies below the floor
        1, 2, 4,
    ])
    def test_other_lengths_are_pocketfft_bits(self, M):
        ctx = CyclicCtx(M)
        x = self._values(M, M)
        assert np.array_equal(ctx.fft(x), np.fft.fft(x))
        assert np.array_equal(ctx.ifft(x), np.fft.ifft(x))
        assert M < groups._PRIME_FACTOR_FLOOR or groups._prime_factor_maps(M) is None

    def test_maps_are_read_only_permutations(self):
        gather, order = groups._prime_factor_maps(136363)
        assert gather.shape == (19, 7177)
        for perm in (gather.reshape(-1), order):
            assert not perm.flags.writeable
            assert np.array_equal(np.sort(perm), np.arange(136363))
