import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hamrom import _native
from hamrom.deim import build_deim
from hamrom.integrator import IntegratorConfig, integrate
from hamrom.pod import compute_pod
from hamrom.rom import RomVariant, build_rom
from hamrom.snapshots import SnapshotSet, collect, shift
from hamrom.wave import (
    WaveConfig,
    assemble_wave_fom,
    build_laplacian,
    initial_state,
    make_wave_rhs,
)


# derandomized hypothesis settings shared by the property tests
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def snapshot_sets(draw):
    """A random snapshot set of at most 30 rows and 15 columns (singular
    values spread over up to six decades), shifted by a random reference
    or not."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.standard_normal((n, m)) * np.logspace(0, -draw(st.floats(0, 6)), m)
    snapshots = SnapshotSet(columns, np.arange(m), "state-u")
    if draw(st.booleans()):
        snapshots = shift(snapshots, rng.standard_normal(n))
    return snapshots


def random_orthonormal(rng, n, r):
    """Random n x r matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q[:, :r]


def random_skew(rng, n):
    m = rng.standard_normal((n, n))
    return m - m.T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_wave():
    """Tiny wave system shared by read-only tests."""
    cfg = WaveConfig(n=24)
    return {"cfg": cfg, "fom": assemble_wave_fom(cfg), "z0": initial_state(cfg)}


@pytest.fixture(scope="session")
def pipe():
    """Small offline pipeline (n = 40, r = 4) and its five reduced models,
    shared by the oracle tests (read-only)."""
    cfg = WaveConfig(n=40)
    n = cfg.n
    fom = assemble_wave_fom(cfg)
    traj = integrate(
        make_wave_rhs(cfg), initial_state(cfg), IntegratorConfig(dt=0.01, t_final=2.0)
    )
    z0 = traj.states[0]
    u0, v0 = z0[:n], z0[n:]
    G = fom.G
    set_u = collect(traj, 10, lambda z: z[:n], "state-u")
    set_v = collect(traj, 10, lambda z: z[n:], "state-v")
    set_g = collect(traj, 10, lambda z: G(z[:n]), "nonlinear-G")
    r, s = 4, 8
    bases = {
        False: (compute_pod(set_u, r), compute_pod(set_v, r)),
        True: (compute_pod(shift(set_u, u0), r), compute_pod(shift(set_v, v0), r)),
    }
    deims = {
        False: build_deim(compute_pod(set_g, s), np.ones(n)),
        True: build_deim(compute_pod(shift(set_g, G(u0)), s), np.ones(n)),
    }
    models = {}
    for tag in ("g-rom", "sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
        variant = RomVariant.from_tag(tag)
        models[tag] = build_rom(
            variant,
            *bases[variant.shifted],
            fom,
            deim=deims[variant.shifted] if variant.kind == "sp-deim" else None,
        )
    return {
        "cfg": cfg,
        "fom": fom,
        "traj": traj,
        "z0": z0,
        "A": build_laplacian(cfg).toarray(),
        "bases": bases,
        "deims": deims,
        "models": models,
    }


@pytest.fixture
def compiled(monkeypatch):
    """Make `TwoBlockSystem.integrate` and `ReducedModel.integrate` fail
    if they take the numpy path.  Skips where the loops cannot be built
    (no C compiler, or a numpy or scipy without its bundled OpenBLAS);
    where they can, their probe must pass.  The probe runs first, since
    it calls the same `integrate_steps`; while the patch is active no test
    may clear `_native.checked`'s cache."""
    if _native.load() is None:
        pytest.skip("the compiled AVF loops are unavailable here")
    assert _native.checked() is not None

    def numpy_path(*args):
        raise AssertionError("integrate took the numpy path")

    monkeypatch.setattr(_native, "integrate_steps", numpy_path)


def check_skew(matrix, tol):
    """Return True iff ||M^T + M||_max <= tol; ValueError if not square."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.max(np.abs(m + m.T))) <= tol


def dense_operators(fom):
    """Dense reference form z' = D (Q z + c * g(z)) of a two-block system:
    D = [[0, I], [-I, 0]], Q = blkdiag(-A, I), c = (c_u, 0)."""
    n = fom.n
    eye, zero = np.eye(n), np.zeros((n, n))
    D = np.block([[zero, eye], [-eye, zero]])
    Q = np.block([[-fom.A.toarray(), zero], [zero, eye]])
    c = np.concatenate([fom.c_u, np.zeros(n)])
    return D, Q, c


def dense_energy(fom, z):
    """H(z) = 0.5 z^T Q z + sum_i c_i G(z_i) through the dense operators."""
    _, Q, c = dense_operators(fom)
    return float(0.5 * z @ (Q @ z) + c @ fom.G(z))


def dense_rhs(fom, z):
    """D grad H(z) through the dense operators."""
    D, Q, c = dense_operators(fom)
    return D @ (Q @ z + c * fom.g(z))
