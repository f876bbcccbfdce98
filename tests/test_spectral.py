import numpy as np
import pytest
from conftest import integrate

from dcl import spectral


def test_single_mode_first_derivative():
    x = spectral.grid(64)
    f = np.sin(2 * np.pi * x)
    df = spectral.spectral_derivative(f, 1)
    assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x))) <= 1e-10


def test_constant_any_order():
    f = np.full(32, 3.7)
    for order in (1, 2, 3, 4):
        assert np.max(np.abs(spectral.spectral_derivative(f, order))) == 0.0


def test_fourth_derivative_against_symbolic():
    # oracle: sympy differentiation of sin(2*pi*x), evaluated on the grid
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x")
    expr = sympy.sin(2 * sympy.pi * xs)
    d4 = sympy.diff(expr, xs, 4)
    x = spectral.grid(64)
    expected = np.array([float(d4.subs(xs, v)) for v in x])
    got = spectral.spectral_derivative(np.sin(2 * np.pi * x), 4)
    assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_transform_round_trip():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((64, 3))
    back = np.fft.irfft(np.fft.rfft(f, axis=0), n=64, axis=0)
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


def test_multicomponent_shape():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((32, 4))
    assert spectral.spectral_derivative(f, 2).shape == (32, 4)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_batched_derivative_matches_members_bitwise(order):
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((5, 64, 3))
    batched = spectral.spectral_derivative(stack, order)
    for member, out in zip(stack, batched):
        assert np.array_equal(out, spectral.spectral_derivative(member, order))


def test_derivative_multipliers_cached_read_only():
    mult = spectral._derivative_multiplier(64, 3)
    assert mult is spectral._derivative_multiplier(64, 3)
    assert not mult.flags.writeable
    assert mult[-1] == 0.0  # odd order: no real Nyquist representative
    assert spectral._derivative_multiplier(64, 2)[-1] != 0.0


def test_discrete_integration_by_parts():
    # exact for sampled fields: the DFT pairing of D is skew
    rng = np.random.default_rng(2)
    n = 128
    coef = np.zeros(n // 2 + 1, dtype=complex)
    coef[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    f = np.fft.irfft(coef, n=n)
    coef[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    g = np.fft.irfft(coef, n=n)
    df, dg = spectral.spectral_derivative(f), spectral.spectral_derivative(g)
    residual = abs(integrate(df * g + f * dg))
    assert residual <= 1e-10


def test_lowpass_kills_high_modes():
    x = spectral.grid(64)
    f = np.sin(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * 20 * x)
    out = spectral.lowpass(f, 10)
    assert np.max(np.abs(out - np.sin(2 * np.pi * x))) <= 1e-12


def test_gauss_legendre_exactness():
    # degree-7 polynomial integrated exactly by 4 nodes
    nodes, weights = spectral.gauss_legendre(4, 0.0, 2.0)
    value = float(np.sum(weights * nodes**7))
    assert abs(value - 2.0**8 / 8.0) <= 1e-12 * 2.0**8


def test_lagrange_matrix_reproduces_polynomials():
    nodes, _ = spectral.gauss_legendre(6, 0.0, 1.0)
    targets = np.linspace(0.1, 0.9, 5)
    mat = spectral.lagrange_matrix(nodes, targets)
    vals = mat @ nodes**5
    assert np.max(np.abs(vals - targets**5)) <= 1e-12


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ROWS = {
    "d,N": lambda rng: rng.standard_normal((3, 64)),
    "B,d,N": lambda rng: rng.standard_normal((4, 3, 128)),
    "q,d,N": lambda rng: rng.standard_normal((8, 3, 64)),
    "2,B,d,N": lambda rng: rng.standard_normal((2, 4, 3, 64)),
    "strided": lambda rng: rng.standard_normal((4, 2, 3, 128))[:, 1, :, ::2],
    "transposed": lambda rng: rng.standard_normal((64, 3)).T,
    "odd N": lambda rng: rng.standard_normal((3, 63)),
}


@pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
@pytest.mark.parametrize("make", ROWS.values(), ids=ROWS)
def test_direct_transforms_match_np_fft_bitwise(make, given_out):
    rows = make(np.random.default_rng(3))
    n = rows.shape[-1]
    want = np.fft.rfft(rows, norm="forward")
    out = np.empty_like(want) if given_out else None
    coef = spectral.rfft(rows, out)
    assert same_bits(coef, want) and (coef is out) == given_out
    back_want = np.fft.irfft(want, n=n, norm="forward")
    out = np.empty_like(back_want) if given_out else None
    back = spectral.irfft(coef, n, out)
    assert same_bits(back, back_want) and (back is out) == given_out


@pytest.mark.parametrize("n", [4096, 32])
def test_direct_irfft_pads_and_truncates_as_np_fft(n):
    # M/2 + 1 stage-grid modes onto the curve grid zero-pad, and a
    # strided slice of them onto a coarser grid truncates
    coef = spectral.rfft(np.random.default_rng(4).standard_normal((4, 3, 256)))
    if n < 256:
        coef = coef[..., : n // 2 + 1]
    want = np.fft.irfft(coef, n=n, norm="forward")
    assert same_bits(spectral.irfft(coef, n), want)
    out = np.empty_like(want)
    assert spectral.irfft(coef, n, out) is out and same_bits(out, want)
