"""Grid geometry, state guards, catalog data, interpolation, moments."""
import math

import numpy as np
import pytest

from kinb import spectral
from kinb.collision import AngularQuadrature, collision_geometry, sigma_from_angle
from kinb.errors import ConfigError
from kinb.spectral import (GridSpec, InitialDatum, SpectralState, init_state,
                           interpolate_array, moments, refine_array,
                           state_with_values, to_physical)

# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_full1d_layout():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    nodes = g.axis_nodes()
    assert g.shape == (129,)
    assert abs(g.spacing - 8.0 / 64.0) < 1e-15
    assert nodes[g.zero_index] == 0.0
    assert abs(nodes[0] + 8.0) < 1e-12 and abs(nodes[-1] - 8.0) < 1e-12


def test_grid_radial_layout():
    g = GridSpec(dimension=3, mode="radial", n=96, eta_max=12.0)
    r = g.abs_nodes()
    assert r.shape == (96,)
    assert r[0] == 0.0 and abs(r[-1] - 12.0) < 1e-12
    # trapezoid weights integrate r^2 over the ball boundary measure
    cells = g.cell_weights()
    got = float(np.sum(cells))
    want = 4.0 * math.pi * 12.0 ** 3 / 3.0
    assert abs(got - want) < 1e-2 * want


def test_grid_full2d_layout():
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    ax = g.axis_nodes()
    assert g.shape == (64, 64)
    assert abs(g.spacing - 4.0 / 64.0) < 1e-15
    assert ax[g.zero_index[0]] == 0.0
    assert abs(ax[0] + 2.0) < 1e-12  # the unpaired -eta_max edge


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(dimension=2, mode="full-1d", n=64, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="radial", n=64, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="full-1d", n=3, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="full-1d", n=64, eta_max=-1.0)
    # an odd planar lattice would put the zero node at -h
    with pytest.raises(ConfigError, match="even n"):
        GridSpec(dimension=2, mode="full-2d", n=17, eta_max=2.0)


_PAIR_GRIDS = (GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0),
               GridSpec(dimension=2, mode="radial", n=33, eta_max=4.0),
               GridSpec(dimension=3, mode="radial", n=33, eta_max=4.0),
               GridSpec(dimension=2, mode="full-2d", n=16, eta_max=4.0))
_PAIR_IDS = ("full-1d", "radial-2d", "radial-3d", "full-2d")


@pytest.mark.parametrize("grid", _PAIR_GRIDS, ids=_PAIR_IDS)
def test_mirror_pairs_each_node_with_its_negative(grid):
    mirror = grid.mirror()
    paired = np.flatnonzero(mirror >= 0)
    nodes = grid.nodes()
    # radial nodes are radii, and |-eta| = |eta|
    want = nodes if grid.mode == "radial" else -nodes
    assert np.array_equal(nodes[mirror[paired]], want[paired])
    assert np.array_equal(mirror[mirror[paired]], paired)
    unpaired = np.zeros(grid.shape, dtype=bool)
    if grid.mode == "full-2d":
        unpaired[0, :] = unpaired[:, 0] = True   # the -n/2 row and column
    assert np.array_equal(mirror.reshape(grid.shape) < 0, unpaired)
    assert np.all(mirror[~unpaired.reshape(-1)] >= 0)


@pytest.mark.parametrize("n", [16, 18, 64])
def test_planar_mirror_matches_the_meshgrid_formula(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    want = np.where((i > 0) & (j > 0), (n - i) * n + (n - j), -1).ravel()
    got = GridSpec(dimension=2, mode="full-2d", n=n, eta_max=2.0).mirror()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _hermitize_per_mode(grid, values):
    """The three per-mode formulas that the mirror-based one replaces."""
    if grid.mode == "full-1d":
        return 0.5 * (values + np.conj(values[::-1]))
    if grid.mode == "radial":
        return values.real.astype(complex)
    out = values.copy()
    out[0, :] = 0.0
    out[:, 0] = 0.0
    block = values[1:, 1:]
    out[1:, 1:] = 0.5 * (block + np.conj(block[::-1, ::-1]))
    return out


@pytest.mark.parametrize("grid", _PAIR_GRIDS, ids=_PAIR_IDS)
def test_hermitize_matches_the_per_mode_formulas(grid):
    rng = np.random.default_rng(11)
    x = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    flat = x.reshape(-1)
    flat.imag[::5] = -0.0      # signed zeros in the imaginary part
    flat[1::7] = 0.0
    got = spectral._hermitize(grid, x)
    want = _hermitize_per_mode(grid, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_state_guards():
    g = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    vals = np.ones(g.shape, dtype=complex)
    st = SpectralState(grid=g, t=0.0, values=vals)
    assert st.mass == 1.0
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=0.0, values=np.ones(7, dtype=complex))
    bad = vals.copy()
    bad[g.zero_index] = 1.0 + 0.5j  # mass must be real
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=0.0, values=bad)
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=-1.0, values=vals)


def test_state_with_values_keeps_grid():
    g = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    st2 = state_with_values(st, st.values * 0.5, t=0.25)
    assert st2.t == 0.25 and st2.grid is g
    assert abs(st2.mass - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# catalog data
# ---------------------------------------------------------------------------


def test_laplace_hat_frozen_oracles():
    # direct numeric transform of the heavy-tailed density, frozen
    for d, want in ((1, 5.936113595207627e-02), (2, 1.022676571650874e-02),
                    (3, 1.761872230760441e-03)):
        datum = InitialDatum(kind="laplace", dimension=d, a=1.3, mass=2.0)
        got = float(datum.hat(np.array([0.7]))[0])
        assert abs(got - want) < 1e-12, (d, got, want)


def test_laplace_density_closed_form():
    # mass exp(-|v|/a) / (a^d |S^{d-1}| Gamma(d)): norms 2a, 2 pi a^2, 8 pi a^3
    rng = np.random.default_rng(3)
    for d, norm in ((1, 2.0 * 1.3), (2, 2.0 * np.pi * 1.3 ** 2),
                    (3, 8.0 * np.pi * 1.3 ** 3)):
        datum = InitialDatum(kind="laplace", dimension=d, a=1.3, mass=2.0)
        pts = rng.normal(size=(5, d))
        r = np.linalg.norm(pts, axis=-1)
        want = 2.0 * np.exp(-r / 1.3) / norm
        got = datum.density(pts).reshape(-1)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), d
        # one d-vector is the row of its (1, d) form, for density and hat
        for fn in (datum.density, datum.hat):
            assert np.array_equal(fn(pts[0]), fn(pts[:1])[0]), (d, fn)
        # d >= 2 reads a 1-d array of another length as radii
        if d > 1:
            assert np.allclose(datum.density(r), want, rtol=1e-14, atol=0.0)


def test_mixture_density_in_two_dimensions():
    comps = ((0.7, (0.9, -0.4), 0.5), (0.3, (-0.6, 0.8), 0.55))
    datum = InitialDatum(kind="gaussian-mixture", dimension=2, components=comps)
    pts = np.random.default_rng(4).normal(size=(6, 2))
    want = sum(w * np.exp(-((pts - c) ** 2).sum(-1) / (2 * s * s))
               / (2 * np.pi * s * s) for w, c, s in comps)
    assert np.allclose(datum.density(pts), want, rtol=1e-14, atol=0.0)
    for fn in (datum.density, datum.hat):
        assert np.array_equal(fn(pts[0]), fn(pts[:1])[0]), fn
    # the density is the inverse transform of hat on a planar grid
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.5)
    v, dens, _ = to_physical(init_state(g, datum))
    mesh = np.stack(np.meshgrid(v, v, indexing="ij"), axis=-1)
    assert np.max(np.abs(dens - datum.density(mesh))) < 1e-10


def test_laplace_moment2_closed_form():
    for d in (1, 2, 3):
        datum = InitialDatum(kind="laplace", dimension=d, a=0.8, mass=1.5)
        assert abs(datum.moment2() - 1.5 * 0.64 * d * (d + 1)) < 1e-12


def test_gaussian_mixture_mass_and_moment2():
    comps = ((0.4, (0.5,), 0.7), (0.6, (-1.0,), 1.2))
    datum = InitialDatum(kind="gaussian-mixture", dimension=1, components=comps)
    assert abs(datum.total_mass - 1.0) < 1e-15
    want = 0.4 * (0.49 + 0.25) + 0.6 * (1.44 + 1.0)
    assert abs(datum.moment2() - want) < 1e-12
    assert abs(complex(datum.hat(np.array([0.0]))[0]) - 1.0) < 1e-15


def test_grid_moments_match_datum():
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=1,
                         components=((0.5, (0.6,), 0.9), (0.5, (-0.6,), 0.9)))
    st = init_state(g, datum)
    m = moments(st, order=2)
    assert abs(m[0] - 1.0) < 1e-12
    assert abs(m[2] - datum.moment2()) < 1e-7


def test_radial_requires_symmetry():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    datum = InitialDatum(kind="gaussian", dimension=2, center=(0.5, 0.0))
    with pytest.raises(ConfigError):
        init_state(g, datum)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind, field", [
    ("gaussian", "sigma"), ("gaussian", "mass"), ("laplace", "a"),
    ("laplace", "mass"), ("gaussian-mixture", "weight"),
    ("gaussian-mixture", "sigma")])
def test_datum_refuses_non_finite_parameters(kind, field, bad):
    # nan passes a `<= 0` test, and a nan or inf datum would reach
    # init_state as NumericalFailure("non-finite values in state"), a
    # configuration error reported as a numerical failure
    if kind == "gaussian-mixture":
        w, s = (bad, 0.5) if field == "weight" else (0.5, bad)
        kw = {"components": ((w, (0.0,), s), (0.5, (0.3,), 0.4))}
    else:
        kw = {field: bad}
    with pytest.raises(ConfigError, match="finite"):
        InitialDatum(kind=kind, dimension=1, **kw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, dimension, coord", [
    ("gaussian", 1, 0), ("gaussian", 2, 0), ("gaussian", 2, 1),
    ("gaussian-mixture", 2, 0), ("gaussian-mixture", 2, 1)])
def test_datum_refuses_non_finite_centers(kind, dimension, coord, bad):
    # a non-finite center would reach init_state as
    # NumericalFailure("non-finite values in state"); the mixture's bad
    # component is its second, after a valid one
    center = [0.25] * dimension
    center[coord] = bad
    if kind == "gaussian":
        kw = {"center": tuple(center)}
    else:
        kw = {"components": ((0.5, (0.0,) * dimension, 0.4), (0.5, tuple(center), 0.6))}
    with pytest.raises(ConfigError, match="finite"):
        InitialDatum(kind=kind, dimension=dimension, **kw)


@pytest.mark.parametrize("kind, kw", [
    ("gaussian", {"center": 0.5}),
    ("gaussian", {"center": ("a",)}),
    ("gaussian-mixture", {"components": ((1.0, 0.5),)}),
    ("gaussian", {"mass": "2"}),
], ids=["scalar-center", "text-center", "two-field-component", "text-mass"])
def test_datum_refuses_malformed_gaussian_input(kind, kw):
    # a center that is not a sequence of numbers, a component that is not
    # a (weight, center, sigma) triple, or text where a number belongs, is
    # a configuration error, not the TypeError or ValueError of the
    # conversion that meets it
    with pytest.raises(ConfigError):
        InitialDatum(kind=kind, dimension=1, **kw)


@pytest.mark.parametrize("kw", [{"a": "x"}, {"mass": "2"}, {"a": None}],
                         ids=["text-a", "numeral-mass", "none-a"])
def test_datum_refuses_laplace_parameters_that_are_not_numbers(kw):
    # the laplace checks compare a and mass with numbers, which raised
    # the comparison's TypeError on text or None
    with pytest.raises(ConfigError, match="laplace a and mass must be numbers"):
        InitialDatum(kind="laplace", dimension=1, **kw)
    # numbers of any numeric type are stored as floats
    datum = InitialDatum(kind="laplace", dimension=1, a=np.float32(0.5), mass=2)
    assert type(datum.a) is float and type(datum.mass) is float
    assert datum == InitialDatum(kind="laplace", dimension=1, a=0.5, mass=2.0)


def test_only_radially_symmetric_data_read_radii():
    # at d >= 2 an input whose last axis is not d is read as radii, which
    # carry no direction: an off-centre datum refuses them rather than
    # evaluate its phase with one coordinate of its center
    off = InitialDatum(kind="gaussian", dimension=2, center=(0.3, 0.4))
    r = np.array([1.0, 2.0, 3.0])
    for fn in (off.hat, off.density):
        with pytest.raises(ConfigError, match="radially symmetric"):
            fn(r)
        assert fn(np.stack([r, r], axis=-1)).shape == (3,)
    # centred data read radii as the points (r, 0), and radial grids
    # still initialize
    centred = InitialDatum(kind="gaussian", dimension=2, sigma=0.7)
    for fn in (centred.hat, centred.density):
        np.testing.assert_allclose(fn(r), fn(np.stack([r, 0.0 * r], axis=-1)),
                                   rtol=1e-15, atol=0.0)
    grid = GridSpec(dimension=2, mode="radial", n=33, eta_max=4.0)
    assert init_state(grid, centred).values.shape == (33,)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_state_refuses_a_non_finite_time(t):
    g = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    with pytest.raises(ConfigError, match="finite"):
        SpectralState(grid=g, t=t, values=np.ones(g.shape, dtype=complex))


def test_datum_validation():
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=1, sigma=-1.0)
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=4)
    with pytest.raises(ConfigError):
        InitialDatum(kind="laplace", dimension=1, a=0.0)
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian-mixture", dimension=1, components=())
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=2, center=(1.0,))
    with pytest.raises(ConfigError, match="unknown datum kind"):
        InitialDatum(kind="cauchy", dimension=1)


_ONE_COMPONENT = ((1.0, (0.0,), 0.5),)


@pytest.mark.parametrize("kind,name,value", [
    ("gaussian-mixture", "mass", 3.0),
    ("gaussian-mixture", "sigma", 0.5),
    ("laplace", "sigma", 0.3),
    ("laplace", "center", (2.0,)),
    ("laplace", "components", _ONE_COMPONENT),
    ("gaussian", "a", 2.0),
    ("gaussian", "components", _ONE_COMPONENT),
])
def test_datum_refuses_parameters_its_kind_does_not_read(kind, name, value):
    base = {"gaussian": {}, "laplace": {"a": 0.5},
            "gaussian-mixture": {"components": _ONE_COMPONENT}}[kind]
    with pytest.raises(ConfigError, match=f"datum kind '{kind}' takes no '{name}'"):
        InitialDatum(kind=kind, dimension=1, **base, **{name: value})
    # a field the kind does not read may keep its default
    default = InitialDatum.__dataclass_fields__[name].default
    InitialDatum(kind=kind, dimension=1, **base, **{name: default})


def test_datum_reads_numpy_centers_and_components_as_tuples():
    datum = InitialDatum(kind="gaussian", dimension=2, center=np.array([0.5, 0.0]))
    assert datum == InitialDatum(kind="gaussian", dimension=2, center=(0.5, 0.0))
    comps = ((0.5, (0.2, 0.0), 0.4), (0.5, (-0.2, 0.0), 0.6))
    mix = InitialDatum(kind="gaussian-mixture", dimension=2,
                       components=np.array(comps, dtype=object))
    assert mix == InitialDatum(kind="gaussian-mixture", dimension=2, components=comps)
    with pytest.raises(ConfigError, match="datum kind 'laplace' takes no 'center'"):
        InitialDatum(kind="laplace", dimension=1, center=np.array([2.0]))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolation_accuracy_1d():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=8.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=0.8)
    st = init_state(g, datum)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-6.0, 6.0, size=200)
    got = interpolate_array(g, st.values, pts)
    want = datum.hat(pts)
    assert np.max(np.abs(got - want)) < 1e-6


def test_interpolation_accuracy_2d():
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((1.0, (0.2, -0.1), 0.5),))
    st = init_state(g, datum)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3.0, 3.0, size=(200, 2))
    got = interpolate_array(g, st.values, pts)
    want = datum.hat(pts)
    assert np.max(np.abs(got - want)) < 1e-5


def test_interpolation_outside_cutoff_is_zero():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    got = interpolate_array(g, st.values, np.array([9.0, -11.0]))
    assert np.all(got == 0.0)


def test_interpolation_exact_at_grid_nodes():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    got = interpolate_array(g, st.values, g.axis_nodes())
    np.testing.assert_allclose(got, st.values, atol=1e-9)


_REFINE_CASES = {
    "full-1d": (GridSpec(dimension=1, mode="full-1d", n=48, eta_max=6.0),
                InitialDatum(kind="gaussian-mixture", dimension=1,
                             components=((0.6, (0.7,), 0.35), (0.4, (-0.4,), 0.5)))),
    "radial-2": (GridSpec(dimension=2, mode="radial", n=48, eta_max=6.0),
                 InitialDatum(kind="gaussian-mixture", dimension=2,
                              components=((0.5, (), 0.3), (0.5, (), 0.6)))),
    "radial-3": (GridSpec(dimension=3, mode="radial", n=48, eta_max=6.0),
                 InitialDatum(kind="laplace", dimension=3, a=0.5)),
    "full-2d": (GridSpec(dimension=2, mode="full-2d", n=32, eta_max=3.0),
                InitialDatum(kind="gaussian-mixture", dimension=2,
                             components=((0.6, (0.4, -0.3), 0.5),
                                         (0.4, (-0.6, 0.2), 0.7)))),
}


def _full_lattice(fine: np.ndarray, Mf: int) -> np.ndarray:
    """The Mf x Mf refined coefficient lattice defined by a stored planar
    half: lattice rows 0..Mf/2 and columns 0..Mf-1 are the stored rows
    1..Mf/2+1 and columns 1..Mf, row i > Mf/2 the mirror conj of row
    Mf - i."""
    H = Mf // 2
    full = np.empty((Mf, Mf), dtype=complex)
    full[:H + 1] = fine[1:H + 2, 1:Mf + 1]
    full[H + 1:] = full[Mf - np.arange(H + 1, Mf)][:, -np.arange(Mf) % Mf].conj()
    return full


def _trig_poly(grid, values):
    """(v, c) of the trigonometric polynomial sum_j c_j e^{-2 pi i v_j eta}
    through the 2n - 1 nodes k h (radial: the even extension), by direct
    sums, without an FFT."""
    n, h = grid.n, grid.spacing
    full = values if grid.mode == "full-1d" else np.concatenate([values[:0:-1], values])
    M = 2 * n - 1
    k = np.arange(-(n - 1), n)
    v = k / (M * h)
    return v, np.exp(2j * np.pi * np.outer(v, k * h)) @ full / M


def _planar_poly(grid, values):
    """(v, c) of the planar trigonometric polynomial
    sum_jk c_jk e^{-2 pi i (v_j kx + v_k ky)}: the real parts of the
    inverse-DFT samples at v_j = j/(M h), j = -M/2..M/2-1, by direct sums."""
    M, h = grid.n, grid.spacing
    k = np.arange(-M // 2, M // 2)
    v = k / (M * h)
    phase = np.exp(2j * np.pi * np.outer(v, k * h))
    return v, (phase @ values @ phase.T).real / M ** 2


def _planar_sum(v, c, pts):
    """The polynomial of _planar_poly at the (N, 2) points pts."""
    ex = np.exp(-2j * np.pi * np.outer(pts[:, 0], v))
    ey = np.exp(-2j * np.pi * np.outer(pts[:, 1], v))
    return np.einsum("pj,jk,pk->p", ex, c, ey)


@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_refine_array_matches_direct_trigonometric_sum(case):
    # refine_array holds the quintic B-spline coefficients of the
    # trigonometric polynomial of _trig_poly: its coefficients c_j divided
    # by the spline's symbol B5(w) = (66 + 52 cos w + 2 cos 2w)/120 at
    # w = 2 pi j/Mf, summed at eta = (k - 2) hf, k = 0..Mf/2 + 4, hf = h/U,
    # so both margins hold the mirror conj of the half-axis; the spline
    # through them equals the polynomial at every refined node. Both sums
    # are evaluated directly here, without an FFT
    grid, datum = _REFINE_CASES[case]
    values = init_state(grid, datum).values
    if grid.mode == "full-2d":
        _check_planar_refinement(grid, values)
        return
    mass = values[grid.zero_index].real
    v, c = _trig_poly(grid, values)
    fine = refine_array(grid, values)
    hf, _ = spectral._fine_axis(grid)
    Mf = spectral._UPSAMPLE * (2 * grid.n - 1)
    assert fine.shape == (Mf // 2 + 5,)
    assert fine.dtype == (complex if grid.mode == "full-1d" else float)
    w = 2.0 * np.pi * v * hf
    b5 = (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w)) / 120.0
    rng = np.random.default_rng(7)
    idx = np.concatenate([[0, 1, 2, fine.size - 3, fine.size - 2, fine.size - 1],
                          rng.choice(fine.size, size=196, replace=False)])
    eta = (idx - 2) * hf
    coef = np.exp(-2j * np.pi * np.outer(eta, v)) @ (c / b5)
    assert np.abs(fine[idx] - coef).max() < 1e-13 * mass
    nodes = eta[(eta >= 0.0) & (eta <= grid.eta_max)]
    if grid.mode == "full-1d":
        nodes = np.concatenate([nodes, -nodes])
    want = np.exp(-2j * np.pi * np.outer(nodes, v)) @ c
    assert np.abs(interpolate_array(grid, values, nodes) - want).max() < 1e-13 * mass
    if grid.mode == "full-1d":
        pts = rng.uniform(0.0, grid.eta_max, size=100)
        np.testing.assert_array_equal(interpolate_array(grid, values, -pts),
                                      np.conj(interpolate_array(grid, values, pts)))


@pytest.mark.parametrize("grid, bound", [
    (GridSpec(dimension=1, mode="full-1d", n=512, eta_max=32.0), 1e-9),
    (GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0), 5e-9),
], ids=["kac_reference", "radial-3"])
def test_half_axis_interpolation_floor(grid, bound):
    # 8-fold refinement and the 6-tap quintic B-spline against the
    # trigonometric polynomial through the nodes, summed directly, on the
    # laplace datum, whose |eta|^-(d+1) tail is the hardest catalog case:
    # 3.1e-10 and 1.65e-9 mass (the 6-point Lagrange stencil at 16-fold
    # refinement read 4.0e-10 and 1.93e-9, 4 points at 32-fold refinement
    # 8.8e-9 and 3.2e-8)
    values = init_state(grid, InitialDatum(kind="laplace", dimension=grid.dimension)).values
    v, c = _trig_poly(grid, values)
    lo = -grid.eta_max if grid.mode == "full-1d" else 0.0
    pts = np.random.default_rng(3).uniform(lo, grid.eta_max, 3000)
    want = np.exp(-2j * np.pi * np.outer(pts, v)) @ c
    err = np.abs(interpolate_array(grid, values, pts) - want).max()
    assert err < bound * values[grid.zero_index].real


def test_planar_interpolation_floor():
    # the 4x4 cubic B-spline at 8-fold refinement against the planar
    # trigonometric polynomial, summed directly, on 3,000 of the eta- and
    # eta+ points of the planar operator of scripts/boltzmann_2d.ini, on
    # its mixture datum: 3.48e-8 mass (the 4x4 Lagrange stencil at 16-fold
    # refinement read 1.96e-8 on these points; the spline pays this floor
    # for half the refinement, a 4x smaller lattice)
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.5, (0.75, 0.0), 0.6), (0.5, (-0.75, 0.0), 0.6)))
    values = init_state(g, datum).values
    th, _ = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5).angles(np.pi / 2)
    theta = np.concatenate([-th[::-1], th])
    # the kept nodes: one of each conjugate pair (the operator mirrors the
    # other) and the unpaired ones
    mirror = g.mirror()
    eta = g.nodes()[(mirror >= 0) & (mirror <= np.arange(mirror.size))][:, None, :]
    r = np.linalg.norm(eta, axis=-1, keepdims=True)
    ehat = np.divide(eta, r, out=np.zeros_like(eta), where=r > 0)
    pts = np.concatenate(collision_geometry(eta, sigma_from_angle(ehat, theta))).reshape(-1, 2)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= g.eta_max]
    pts = pts[np.random.default_rng(17).choice(len(pts), 3000, replace=False)]
    v, c = _planar_poly(g, values)
    err = np.abs(interpolate_array(g, values, pts) - _planar_sum(v, c, pts)).max()
    assert err < 4e-8 * values[g.zero_index].real


@pytest.mark.parametrize("taps", [4, 6])
def test_bspline_weight_properties(taps):
    # the cubic (4 taps) and quintic (6 taps) B-spline weights of the
    # offsets 1-taps/2..taps/2 sum to 1, have first moment t (the spline
    # reproduces linear functions), mirror as w_k(t) = w_{taps-1-k}(1 - t)
    # and are nonnegative, on [0, 1] with both ends
    t = np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0.0, 1.0, 500)])
    w = spectral._bspline_weights(t, taps)
    offsets = np.arange(taps) + 1 - taps // 2
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(offsets @ w, t, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, spectral._bspline_weights(1.0 - t, taps)[::-1],
                               rtol=0, atol=1e-15)
    assert w.min() >= -1e-15


def _check_planar_refinement(grid, values):
    # the stored rows and columns are the cubic B-spline coefficients of
    # the planar trigonometric polynomial: its coefficients c_jk divided by
    # B3(wj) B3(wk), B3(w) = (2 + cos w)/3 at w = 2 pi j/Mf, summed at the
    # lattice point kx = (r - 1) hf, ky = -eta_max + (s - 1) hf of the
    # stored row r, column s, so both margin rows and the margin columns
    # hold the periodic continuation of the lattice; the spline through
    # them equals the polynomial at every lattice node in the disk
    hf, H = spectral._fine_axis(grid)
    Mf = 2 * H
    e = grid.eta_max
    v, c = _planar_poly(grid, values)
    b3 = (2.0 + np.cos(2.0 * np.pi * v * hf)) / 3.0
    fine = refine_array(grid, values)
    assert fine.shape == (H + 3, Mf + 3) and fine.dtype == complex
    ex = np.exp(-2j * np.pi * np.outer(np.arange(-1, H + 2) * hf, v))
    ey = np.exp(-2j * np.pi * np.outer(-e + np.arange(-1, Mf + 2) * hf, v))
    want = ex @ (c / np.outer(b3, b3)) @ ey.T
    mass = values[grid.zero_index].real
    assert np.abs(fine - want).max() < 1e-13 * mass
    rng = np.random.default_rng(7)
    nodes = -e + np.concatenate([rng.integers(0, Mf + 1, (3000, 2)),
                                 [[0, H], [H, 0], [H, Mf], [Mf, H], [H, H]]]) * hf
    nodes = nodes[np.hypot(nodes[:, 0], nodes[:, 1]) <= e]
    err = np.abs(interpolate_array(grid, values, nodes) - _planar_sum(v, c, nodes)).max()
    assert err < 1e-13 * mass
    # a point in kx < 0 is read at -eta and conjugated, so F(-eta) =
    # conj F(eta) holds bit for bit off kx = 0, in the strips at |kx| or
    # |ky| near eta_max too
    phi = rng.uniform(0.0, 2.0 * np.pi, 1000)
    strips = np.concatenate([e * np.stack([np.cos(phi), np.sin(phi)], axis=1),
                             [[e - 0.5 * hf, 0.1], [0.2, e - 0.3 * hf],
                              [-0.3, -e + 1.5 * hf], [-e + 0.2 * hf, -0.05]]])
    pts = np.concatenate([rng.uniform(-e, e, (4000, 2)), strips])
    pts = pts[(np.hypot(pts[:, 0], pts[:, 1]) <= e) & (pts[:, 0] != 0.0)]
    assert np.count_nonzero(np.abs(pts) > e - 2.0 * hf) > 100
    np.testing.assert_array_equal(interpolate_array(grid, values, -pts),
                                  np.conj(interpolate_array(grid, values, pts)))


def test_planar_edge_reads_match_the_trigonometric_sum():
    # B-spline weights hold for t in [0, 1] only, so a point within two fine
    # cells of kx = -eta_max or ky = +-eta_max must read the periodic
    # continuation of the lattice (period 2 eta_max), not extrapolate from
    # clipped taps. On a broad gaussian, whose transform is far from 0 at
    # eta_max, such points must match the polynomial as well as the points
    # 2 to 10 cells in from the same edges do: here 1.16e-6 against
    # 1.02e-6 mass (the cubic spline's floor grows with |eta| on this
    # datum). Clipped cells err 2.6e-5 (the 4x4 Lagrange stencil at
    # 16-fold refinement) or 6.9e-5 (B-spline taps clipped one cell in)
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=3.0)
    values = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.12)).values
    v, c = _planar_poly(g, values)
    hf, _ = spectral._fine_axis(g)
    e = g.eta_max
    rng = np.random.default_rng(19)

    def strips(lo, hi):
        # points lo..hi cells in from ky = eta_max, ky = -eta_max and
        # kx = -eta_max, near the axis that crosses each edge
        d = e - rng.uniform(lo, hi, (3, 1000)) * hf
        s = rng.uniform(-2.0, 2.0, (3, 1000)) * hf
        pts = np.concatenate([np.stack([s[0], d[0]], axis=1),
                              np.stack([s[1], -d[1]], axis=1),
                              np.stack([-d[2], s[2]], axis=1)])
        return pts[np.hypot(pts[:, 0], pts[:, 1]) <= e]

    def err(pts):
        return np.abs(interpolate_array(g, values, pts) - _planar_sum(v, c, pts)).max()

    edge = np.concatenate([strips(0.0, 2.0), [[0.0, e], [0.0, -e], [-e, 0.0]]])
    assert len(edge) > 1500
    assert err(edge) < 1.5 * err(strips(2.0, 10.0)) * values[g.zero_index].real


def test_planar_plan_matches_direct_16_tap_sum():
    # the planar plan keeps only in-disk points, sorted by refined row; its
    # sums must equal, bit for bit and in the caller's order, the 16-tap
    # cubic B-spline sum (y-taps first, then x-taps) on the periodic
    # lattice that the stored half defines: at the point's own cell for
    # kx >= 0, and conjugated at -eta for kx < 0; beyond-disk points read 0
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=3.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.6, (0.4, -0.3), 0.5), (0.4, (-0.6, 0.2), 0.7)))
    half = refine_array(g, init_state(g, datum).values)
    hf, H = spectral._fine_axis(g)
    cnt = 2 * H
    fine = _full_lattice(half, cnt)
    e = g.eta_max
    rng = np.random.default_rng(11)
    edge = np.array([[e, 0.0], [-e, 0.0], [0.0, -e], [0.0, e], [e - 0.5 * hf, 0.1],
                     [-0.2, e - 0.3 * hf], [-e + 0.4 * hf, 0.05], [-hf, e - 1e-3],
                     [e * (1 + 1e-13), 0.0], [-e * (1 + 1e-13), 0.0],
                     [0.0, -e * (1 + 1e-13)], [0.6 * e, -0.8 * e]])
    # blocks straddling row 0 (kx = 0), blocks just beyond it, and
    # points at ky ~ +-eta_max on either side of kx = 0
    y = rng.uniform(-0.9 * e, 0.9 * e, 40)
    straddle = np.stack([np.linspace(-2.0 * hf, 1.99 * hf, 40), y], axis=1)
    above = np.stack([np.linspace(2.0 * hf, 3.99 * hf, 40), y], axis=1)
    rim = np.array([[0.05, -e + 0.3 * hf], [-0.1, -e + 0.9 * hf],
                    [0.03, e - 0.1 * hf], [-0.12, e - 1.9 * hf]])
    beyond = np.array([[e * 1.001, 0.0], [0.0, -e * 1.2], [e, e], [-0.9 * e, 0.9 * e]])
    pts = np.concatenate([g.nodes(), rng.uniform(-1.1 * e, 1.1 * e, (20000, 2)),
                          edge, straddle, above, rim, beyond])
    pts = pts[rng.permutation(len(pts))]

    def stencil(x, x0, last):
        # the clipped cell and the cubic B-spline weights (1-t)^3/6,
        # (4 - 6t^2 + 3t^3)/6, (1 + 3t + 3t^2 - 3t^3)/6 and t^3/6, each by
        # Horner's rule from t^3 down, as _bspline_weights sums them
        u = (x - x0) / hf
        i = np.clip(np.floor(u), 0, last)
        t = u - i
        w = []
        for p in ((-1, 3, -3, 1), (3, -6, 0, 4), (-3, 3, 3, 1), (1, 0, 0, 0)):
            acc = (p[0] / 6.0) * t + p[1] / 6.0
            for q in p[2:]:
                acc = acc * t + q / 6.0
            w.append(acc)
        return i.astype(np.int64), np.array(w)

    # the plan's in-place helpers compute the same bits, here on the ky axis
    x = -e + rng.uniform(-1.5, cnt + 1.5, 1000) * hf
    u, i = spectral._fine_cell(x.copy(), -e, hf, cnt - 1)
    u -= i
    want_i, want_w = stencil(x, -e, cnt - 1)
    np.testing.assert_array_equal(i, want_i)
    np.testing.assert_array_equal(spectral._bspline_weights(u, 4), want_w)

    mask = np.hypot(pts[:, 0], pts[:, 1]) <= e * (1 + 1e-12)
    flip = pts[:, 0] < 0
    read = np.where(mask[:, None], np.where(flip[:, None], -pts, pts), 0.0)
    ix, wx = stencil(read[:, 0], 0.0, H - 1)
    iy, wy = stencil(read[:, 1], -e, cnt - 1)
    # the cells at both edges are hit, so the taps read the wrap columns,
    # the front margin row (the rows from kx = 0) and the back margin row
    # (the rows up to |kx| = eta_max), on both sides of kx = 0
    assert ix.min() == iy.min() == 0 and ix.max() == H - 1 and iy.max() == cnt - 1
    for side in (flip, ~flip):
        assert {0, 1, H - 2, H - 1} <= set(ix[mask & side].tolist())
    # the margins are the periodic continuation of the lattice
    np.testing.assert_array_equal(half[0, 1:cnt + 1], fine[cnt - 1])
    np.testing.assert_array_equal(half[H + 2, 1:cnt + 1], fine[H + 1])
    np.testing.assert_array_equal(half[1:H + 2, 0], fine[:H + 1, cnt - 1])
    np.testing.assert_array_equal(half[1:H + 2, cnt + 1:], fine[:H + 1, :2])
    want = np.zeros(len(pts), dtype=complex)
    for a in range(4):
        partial = np.zeros(len(pts), dtype=complex)
        for b in range(4):
            partial += wy[b] * fine[(ix + a - 1) % cnt, (iy + b - 1) % cnt]
        want += wx[a] * partial
    want = np.where(mask, np.where(flip, want.conj(), want), 0.0)

    got = spectral._InterpPlan(g, pts).apply(half)
    np.testing.assert_array_equal(got, want)
    assert np.all(got[~mask] == 0.0) and (~mask).sum() >= len(beyond)
    assert np.count_nonzero(got[mask]) > 0.99 * mask.sum()
    # the caller's layout comes back, whatever order the points arrive in
    perm = rng.permutation(len(pts))
    np.testing.assert_array_equal(
        spectral._InterpPlan(g, pts[perm].reshape(-1, 4, 2)).apply(half),
        got[perm].reshape(-1, 4))


@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_plan_reads_stay_on_the_refined_array(case):
    # numpy wraps a negative index without an error, so a margin off by one
    # would read wrong values silently: every flat index a plan reads, on
    # random points and on the edges (the rim, the rows around kx = 0 and
    # ky = +-eta_max), must lie in [0, fine.size)
    grid, datum = _REFINE_CASES[case]
    fine = refine_array(grid, init_state(grid, datum).values)
    hf, _ = spectral._fine_axis(grid)
    e = grid.eta_max
    rng = np.random.default_rng(13)
    if grid.mode == "full-2d":
        phi = rng.uniform(0.0, 2.0 * np.pi, 500)
        s = rng.uniform(-e, e, 200)
        kx0 = np.stack([hf * rng.uniform(-3.0, 3.0, 200), s], axis=1)
        edge = np.concatenate([
            e * np.stack([np.cos(phi), np.sin(phi)], axis=1),
            kx0, np.stack([np.zeros(200), s], axis=1),
            np.stack([hf * rng.uniform(-2.0, 2.0, 50), np.full(50, e)], axis=1),
            np.stack([hf * rng.uniform(-2.0, 2.0, 50), np.full(50, -e)], axis=1)])
        pts = np.concatenate([rng.uniform(-e, e, (2000, 2)), edge])
        plan = spectral._InterpPlan(grid, pts)
        assert plan.stride == fine.shape[1]
        taps = (np.arange(4)[:, None] * plan.stride + np.arange(4)).ravel()
        reads = plan.base[:, None] + taps
    else:
        edge = np.array([0.0, hf / 3, 2.5 * hf, e - hf / 3, e, e * (1 + 1e-13), 1.5 * e])
        pts = np.concatenate([rng.uniform(-e, e, 2000), edge, -edge])
        plan = spectral._InterpPlan(grid, pts)
        reads = plan.first[:, None] + np.arange(spectral._HALF_TAPS)
    assert reads.min() >= 0 and reads.max() < fine.size


def test_interpolate_array_rejects_non_real_samples():
    # full-1d and radial refinements read only eta >= 0, so samples that are
    # not transforms of real densities would give wrong values silently
    g1 = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    vals = init_state(g1, InitialDatum(kind="gaussian", dimension=1)).values.copy()
    vals[g1.zero_index[0] + 3] += 1e-6j
    with pytest.raises(ConfigError, match="Hermitian"):
        interpolate_array(g1, vals, np.array([0.5, 1.5]))
    gr = GridSpec(dimension=3, mode="radial", n=33, eta_max=4.0)
    vals = init_state(gr, InitialDatum(kind="gaussian", dimension=3)).values.copy()
    vals[5] += 1e-6j
    with pytest.raises(ConfigError, match="real"):
        interpolate_array(gr, vals, np.array([0.5, 1.5]))


def test_interpolate_array_rejects_non_hermitian_planar_samples():
    # the planar refinement reads the Hermitian part of the samples only;
    # the unpaired -n/2 row and column are not checked
    g = GridSpec(dimension=2, mode="full-2d", n=16, eta_max=2.0)
    vals = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.5,
                                      center=(0.2, -0.1))).values.copy()
    pts = np.array([[0.5, -0.3], [1.5, 0.2]])
    vals[0] += 1e-3
    interpolate_array(g, vals, pts)
    vals[9, 5] += 1e-6j
    with pytest.raises(ConfigError, match="Hermitian"):
        interpolate_array(g, vals, pts)


# ---------------------------------------------------------------------------
# moments and reconstruction
# ---------------------------------------------------------------------------


def test_moments_orders_1d():
    g = GridSpec(dimension=1, mode="full-1d", n=512, eta_max=16.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=1.0,
                         center=(0.3,))
    st = init_state(g, datum)
    m = moments(st, order=4)
    assert abs(m[0] - 1.0) < 1e-10
    assert abs(m[1] - 0.3) < 1e-8
    assert abs(m[2] - (1.0 + 0.09)) < 1e-7
    # E[v^4] for N(c, 1): 3 + 6 c^2 + c^4
    assert abs(m[4] - (3.0 + 6.0 * 0.09 + 0.3 ** 4)) < 1e-3


def test_moments_order3_unavailable():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2))
    with pytest.raises(NotImplementedError):
        moments(st, order=3)


def test_moments_radial_vs_full2d():
    datum = InitialDatum(kind="gaussian", dimension=2, sigma=0.5)
    gr = GridSpec(dimension=2, mode="radial", n=128, eta_max=4.0)
    gf = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    mr = moments(init_state(gr, datum), order=4)
    mf = moments(init_state(gf, datum), order=4)
    assert abs(mr[0] - mf[0]) < 1e-9
    assert abs(mr[2] - mf[2]) < 1e-7
    assert abs(mr[-1] - mf[-1]) < 1e-3
    assert abs(mr[2] - 2.0 * 0.25) < 1e-8


def test_planar_moments_are_exact_sums():
    # an off-centre planar mixture: the moments of the trigonometric
    # polynomial through the samples match the closed forms to roundoff
    comps = ((0.7, (0.9, -0.4), 0.5), (0.3, (-0.6, 0.8), 0.55))
    datum = InitialDatum(kind="gaussian-mixture", dimension=2, components=comps)
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.5)
    m0, m1, m2 = moments(init_state(g, datum), order=2)
    want_m1 = sum(w * np.asarray(c) for w, c, _ in comps)
    assert abs(m0 - 1.0) < 1e-12
    assert np.abs(m1 - want_m1).max() < 1e-12 * np.abs(want_m1).max()
    assert abs(m2 - datum.moment2()) < 1e-12 * datum.moment2()


def test_to_physical_gaussian():
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=1.0)
    st = init_state(g, datum)
    v, dens, dv = to_physical(st)
    want = datum.density(v)
    assert np.max(np.abs(dens - want)) < 1e-10
    assert abs(np.sum(dens) * dv - 1.0) < 1e-10


def test_to_physical_radial_unavailable():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2))
    with pytest.raises(ConfigError):
        to_physical(st)


def test_broken_symmetry_rejected_at_construction():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    vals = st.values.copy()
    vals += 1e-3j * np.exp(-g.abs_nodes() ** 2)  # breaks hermitian symmetry
    vals[g.zero_index] = st.values[g.zero_index]
    with pytest.raises(ConfigError):
        state_with_values(st, vals)


def test_radial_state_must_be_real():
    # the radial refinement reads the profile as real; an imaginary part
    # would be dropped without notice, so construction rejects it
    g = GridSpec(dimension=3, mode="radial", n=33, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=3))
    vals = st.values.copy()
    vals[4] += 1e-6j
    with pytest.raises(ConfigError, match="real"):
        state_with_values(st, vals)
    # a residue within 1e-12 of the mass passes, and the state stores the
    # projection bit for bit: the real part
    vals[4] = st.values[4] + 4e-13j
    assert (state_with_values(st, vals).values.tobytes()
            == spectral._hermitize(g, vals).tobytes() == st.values.tobytes())


def test_unpaired_edge_junk_is_dropped_at_construction():
    # the -n/2 row of an even lattice has no conjugate partner and carries
    # no real-density content, so the state stores 0 there and the
    # reconstruction is that of the clean state
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.5))
    vals = st.values.copy()
    vals[0, :] = 1e-3j
    vals[:, 0] = 2e-3
    junk = state_with_values(st, vals)
    assert np.array_equal(junk.values, st.values)
    for a, b in zip(to_physical(junk), to_physical(st)):
        assert np.array_equal(a, b)
    # with a 1e-13 residue on a pair too, the state stores the projection
    # bit for bit
    vals[9, 5] += 1e-13 * (1 + 1j)
    assert (state_with_values(st, vals).values.tobytes()
            == spectral._hermitize(g, vals).tobytes())
