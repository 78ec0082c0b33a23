"""Assembly of the five reduced models for two-block wave systems.

The full-order system is a `core.TwoBlockSystem`: z = (u, v) with
u' = v, v' = A u - c_u g(u), A sparse and symmetric.  The
`ReducedModel` constructor derives every reduced operator from the
system and the model's defining data (block bases, reference state and,
for sp-deim, interpolation indices and weights), so that the online
right-hand side costs O(r^2) plus the nonlinear term: an O(n r)
projection for Galerkin and plain structure-preserving models, or O(s r)
sampled evaluation for the interpolation-based ones.  `build_rom` (from
POD bases) and `load_rom` (from a version-2 artifact, which stores only
the defining data) both call it.

Variants
--------
g-rom       plain Galerkin projection; not structure preserving.
sp-pod-1/2  structure preserving via the reduced skew coupling
            [[0, phi_u^T phi_v], [-phi_v^T phi_u, 0]]; "-2" uses bases
            from snapshots shifted by the initial state.
sp-deim-1/2 same skew structure with the nonlinear gradient term
            evaluated at s interpolation points only.

Every variant is affine plus one sampled nonlinearity,

    z' = L z + c + M g(P a + x_ref),    z = (a, b),

and differs from the others only in L, c, M, P and x_ref.  `make_rhs`
evaluates that form; `make_step` advances it with the average-vector-field
(AVF) discrete gradient, which conserves the reduced energy of the
structure-preserving variants exactly (up to the fixed-point tolerance
and rounding), solving each step from the first iterate that
`integrate_steps` supplies and refining the result once against the
unfactored step equation, so that rounding does not make the energy
drift.  `integrate` runs those steps over a whole time grid; for the
wave's `sin_average` it runs them in the compiled loop of `_avf.c`, with
the same result bit for bit.  Every variant also has one energy form,

    H_r = -a'A_r a/2 - a'lin_u + b'b/2 + b'lin_v + W . G(P a + x_ref) + C,

with the same P and x_ref, sampling weights W and a constant C fixed by
H_r(0) = H(z_ref).  Its cost is O(r^2) plus the nonlinear term.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import _native
from ._binio import FileFormatError, check_payload, read_array, read_exact, write_array
from .integrator import _EXTRAPOLATION, IntegratorConfig, Trajectory, picard_solve

__all__ = [
    "RomVariant",
    "VARIANT_TAGS",
    "ReducedModel",
    "build_rom",
    "save_rom",
    "load_rom",
]

_ROM_MAGIC = b"HRROM001"
_ROM_VERSION = 2
_HEADER = struct.Struct("<8sIIBQQQQ")
_KIND_CODES = {"g-rom": 0, "sp-pod": 1, "sp-deim": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

VARIANT_TAGS = ("g-rom", "sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2")


@dataclass(frozen=True)
class RomVariant:
    """Model family (g-rom, sp-pod, sp-deim) plus the shifted-basis flag."""

    kind: str
    shifted: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "g-rom" and self.shifted:
            raise ValueError("a shifted Galerkin model is not supported")
        object.__setattr__(self, "shifted", bool(self.shifted))

    @classmethod
    def from_tag(cls, tag):
        if tag == "g-rom":
            return cls("g-rom", False)
        for kind in ("sp-pod", "sp-deim"):
            if tag == kind + "-1":
                return cls(kind, False)
            if tag == kind + "-2":
                return cls(kind, True)
        raise ValueError(f"unknown model tag {tag!r}; expected one of {VARIANT_TAGS}")

    @property
    def tag(self) -> str:
        if self.kind == "g-rom":
            return "g-rom"
        return self.kind + ("-2" if self.shifted else "-1")


class ReducedModel:
    """Reduced dynamics of one variant, derived from bases and references.

    The constructor projects the full-order `fom` (a `core.TwoBlockSystem`)
    onto the block bases phi_u, phi_v and the reference state
    (u_ref, v_ref), zero for unshifted variants: cuv = phi_u^T phi_v,
    a_red = phi_u^T A phi_u, lin_u = phi_u^T A u_ref, lin_v = phi_v^T v_ref,
    the Galerkin cross block phi_v^T A phi_u, the affine form and the
    energy constant.  `fom` also supplies c_u, G, g and the segment mean
    g_avg (which `make_step` needs).

    The reduced state is the concatenation (a, b) of the u- and v-block
    coefficients.  Use `integrate()` to integrate the model, `make_step()`
    for its single AVF step, `make_rhs()` for the online right-hand side
    and `hamiltonian()` for the reduced energy.  Every variant samples the
    nonlinearity through one triple (P, W, x_ref): the rows phi_u[idx],
    the interpolation weights and u_ref[idx] for sp-deim, and phi_u, c_u,
    u_ref otherwise.

    Raises ValueError when the interpolation data do not match the
    variant, when an index is repeated or outside [0, n), when a value is
    not finite, or when an unshifted variant has a nonzero reference.
    """

    def __init__(
        self,
        variant: RomVariant,
        fom,
        phi_u,
        phi_v,
        u_ref,
        v_ref,
        deim_indices=None,
        deim_weights=None,
    ):
        # The constructor owns the memory layout: every array it stores or
        # derives is C-contiguous, whatever the layout of the caller's
        # arrays, so a model built from bases and one loaded from their
        # artifact compute bit-identically, and the compiled loop takes
        # each operand as the C-ordered matrix that np.dot sees
        self.variant = variant
        self.phi_u = np.ascontiguousarray(phi_u, dtype=float)
        self.phi_v = np.ascontiguousarray(phi_v, dtype=float)
        self.u_ref = np.ascontiguousarray(u_ref, dtype=float)
        self.v_ref = np.ascontiguousarray(v_ref, dtype=float)
        self.c_u = fom.c_u
        self.G_fn = fom.G
        self.g_fn = fom.g
        self.g_avg = fom.g_avg
        self.n = self.phi_u.shape[0]
        self.r_u = self.phi_u.shape[1]
        self.r_v = self.phi_v.shape[1]
        data = [self.phi_u, self.phi_v, self.u_ref, self.v_ref]

        if variant.kind == "sp-deim":
            if deim_indices is None or deim_weights is None:
                raise ValueError("sp-deim requires interpolation indices and weights")
            idx = np.asarray(deim_indices)
            self.deim_weights = np.asarray(deim_weights, dtype=float)
            if (
                idx.ndim != 1
                or idx.size == 0
                or self.deim_weights.shape != idx.shape
                or idx.min() < 0
                or idx.max() >= self.n
                or np.unique(idx).size != idx.size
            ):
                raise ValueError(
                    f"interpolation indices must be distinct, below n = {self.n} "
                    "and one per weight"
                )
            self.deim_indices = idx.astype(np.int64)
            self.s = idx.size
            data.append(self.deim_weights)
            self._P = self.phi_u[self.deim_indices, :]
            self._W = self.deim_weights
            self._x_ref = self.u_ref[self.deim_indices]
        else:
            if deim_indices is not None or deim_weights is not None:
                raise ValueError(f"{variant.tag} does not take interpolation data")
            self.deim_indices = None
            self.deim_weights = None
            self.s = 0
            self._P, self._W, self._x_ref = self.phi_u, self.c_u, self.u_ref
        if not all(np.all(np.isfinite(arr)) for arr in data):
            raise ValueError("bases, references and weights must be finite")
        if not variant.shifted and (np.any(self.u_ref) or np.any(self.v_ref)):
            raise ValueError(f"{variant.tag} takes a zero reference state")

        A = fom.A
        A_phi_u = A @ self.phi_u
        self.cuv = self.phi_u.T @ self.phi_v
        self.a_red = self.phi_u.T @ A_phi_u
        if variant.shifted:
            self.lin_u = self.phi_u.T @ (A @ self.u_ref)
            self.lin_v = self.phi_v.T @ self.v_ref
        else:
            self.lin_u = np.zeros(self.r_u)
            self.lin_v = np.zeros(self.r_v)

        # The affine form z' = L z + c + [0; m_b g(P a + x_ref)].
        ru, rv = self.r_u, self.r_v
        self._L = np.zeros((ru + rv, ru + rv))
        self._L[:ru, ru:] = self.cuv
        self._c = np.concatenate([self.cuv @ self.lin_v, self.cuv.T @ self.lin_u])
        if variant.kind == "g-rom":
            self._L[ru:, :ru] = self.phi_v.T @ A_phi_u
            self._m_b = np.ascontiguousarray(-(self.phi_v.T * self.c_u))
        else:
            self._L[ru:, :ru] = self.cuv.T @ self.a_red
            self._m_b = -self.cuv.T @ (self._P.T * self._W)
        # H_r(0) = H(z_ref): the sampled term at the origin is cancelled
        z_ref = np.concatenate([self.u_ref, self.v_ref])
        self._energy_shift = fom.energy(z_ref) - self._W @ self.G_fn(self._x_ref)

    @property
    def tag(self) -> str:
        return self.variant.tag

    @property
    def dim(self) -> int:
        """Reduced state length r_u + r_v."""
        return self.r_u + self.r_v

    def reduced_skew(self) -> np.ndarray:
        """Assembled reduced coupling [[0, cuv], [-cuv^T, 0]]."""
        ru, rv = self.r_u, self.r_v
        out = np.zeros((ru + rv, ru + rv))
        out[:ru, ru:] = self.cuv
        out[ru:, :ru] = -self.cuv.T
        return out

    def make_rhs(self, g=None):
        """Online right-hand side closure over the reduced state (a, b).

        Pass `g` to substitute (for example to count) the nonlinearity
        derivative; the default is the one captured at build time.
        """
        g_fn = self.g_fn if g is None else g
        ru = self.r_u
        L, c, m_b, P, x_ref = self._L, self._c, self._m_b, self._P, self._x_ref

        def f(z):
            out = L @ z + c
            out[ru:] += m_b @ g_fn(P @ z[:ru] + x_ref)
            return out

        return f

    def make_step(self, config: IntegratorConfig):
        """AVF step of the reduced model for `integrate_steps`.

        With g at the midpoint replaced by its exact mean over the step,
        the step solves

            (I - dt/2 L) z1 = (I + dt/2 L) z0 + dt c + dt M g_avg(x0, x1),

        x = P a + x_ref, by fixed-point iteration on z1 from the first
        iterate `start` that `integrate_steps` supplies, with K = I - dt/2 L
        inverted once.  The converged z1 then takes one step of iterative
        refinement against the unfactored equation,

            z1 <- z1 - K^-1 (K z1 - y - dt M q),   y = (I + dt/2 L) z0 + dt c,

        with q the last iteration's g_avg value.  Without it the rounding
        of the stored K^-1 biases every step the same way, and the reduced
        energy of a structure-preserving variant drifts linearly in time.
        The returned step(z, start) gives (z1, Picard iterations), solving
        by `picard_solve`.

        `_avf.c` repeats this step's arithmetic operation by operation for
        `integrate`: a change here must be made there too, or the probe of
        `_native.checked` turns the compiled loops off.
        """
        if self.g_avg is None:
            raise ValueError("AVF stepping needs the segment mean g_avg of the nonlinearity")
        ru, g_avg = self.r_u, self.g_avg
        K, K_plus, k_inv, B, dt_m, dt_c = self._avf_operators(config.dt)
        P, x_ref = self._P, self._x_ref

        def step(z, start):
            y = np.dot(K_plus, z) + dt_c
            w = np.dot(k_inv, y)
            x0 = np.dot(P, z[:ru]) + x_ref
            q = None

            def update(z1):
                nonlocal q
                q = g_avg(x0, np.dot(P, z1[:ru]) + x_ref)
                return np.dot(B, q) + w

            z1, iterations = picard_solve(update, start, config)
            r = np.dot(K, z1) - y
            r[ru:] -= np.dot(dt_m, q)
            return z1 - np.dot(k_inv, r), iterations

        return step

    def _avf_operators(self, dt):
        """The operators of the AVF step at step size dt: K = I - dt/2 L,
        K_plus = I + dt/2 L, K^-1, B = K^-1 [0; dt M], dt M and dt c."""
        eye = np.eye(self._L.shape[0])
        K = eye - 0.5 * dt * self._L
        K_plus = eye + 0.5 * dt * self._L
        k_inv = np.linalg.inv(K)
        dt_m = dt * self._m_b
        return K, K_plus, k_inv, k_inv[:, self.r_u :] @ dt_m, dt_m, dt * self._c

    def integrate(self, z0, config: IntegratorConfig) -> Trajectory:
        """AVF integration from the reduced state z0 over config's steps; see
        `_native.integrate`."""
        return _native.integrate(self, z0, config)

    def _compiled(self, loops, config):
        """The reduced loop of `_native.load`'s `loops`, its leading
        arguments at config.dt, arrays for pointers, and its work doubles,
        for `_native.run`; None where an operator has a single row or
        column, which np.dot multiplies without BLAS gemv."""
        if min(self.r_u, self.r_v, self._P.shape[0]) < 2:
            return None
        K, K_plus, k_inv, B, dt_m, dt_c = self._avf_operators(config.dt)
        m = self._P.shape[0]
        args = [loops.gemv, self.dim, self.r_u, m, K_plus, k_inv, K, B, dt_m, self._P, dt_c,
                self._x_ref, _EXTRAPOLATION]
        return loops.reduced, args, np.empty(9 * self.dim + 3 * m)

    def rhs(self, z) -> np.ndarray:
        return self.make_rhs()(z)

    def hamiltonian(self, z):
        """Reduced energy of a reduced state (a, b), or of each row of a stack.

            H_r = -a'A_r a/2 - a'lin_u + b'b/2 + b'lin_v + W . G(P a + x_ref) + C,

        with C = H(z_ref) - W . G(x_ref).  Sampling all n rows (P = phi_u,
        W = c_u) gives the full-order energy of the reconstruction, since
        phi_v is orthonormal.
        """
        z = np.asarray(z, dtype=float)
        a = z[..., : self.r_u]
        b = z[..., self.r_u :]
        return (
            -0.5 * np.sum(a * (a @ self.a_red), axis=-1)
            - a @ self.lin_u
            + 0.5 * np.sum(b * b, axis=-1)
            + b @ self.lin_v
            + self.G_fn(a @ self._P.T + self._x_ref) @ self._W
            + self._energy_shift
        )

    def initial_coefficients(self, z) -> np.ndarray:
        """Reduced coordinates phi^T (z - ref) of a full state, block by
        block; the reference state of a shifted model maps to zeros."""
        z = np.asarray(z, dtype=float)
        n = self.n
        if z.shape != (2 * n,):
            raise ValueError(f"state has shape {z.shape}, expected ({2 * n},)")
        return np.concatenate(
            [self.phi_u.T @ (z[:n] - self.u_ref), self.phi_v.T @ (z[n:] - self.v_ref)]
        )


def build_rom(variant, basis_u, basis_v, fom, deim=None):
    """Assemble a reduced model from block bases and the full-order system.

    Parameters
    ----------
    variant : RomVariant
    basis_u, basis_v : PodBasis
        Block bases; for shifted variants both must carry shift references.
    fom : TwoBlockSystem
        Full-order system (see `core`).
    deim : DeimModel, optional
        Required for (and only for) sp-deim variants.
    """
    n = fom.n
    if basis_u.n != n or basis_v.n != n:
        raise ValueError("basis row count does not match the block dimension")
    if basis_u.shifted != variant.shifted or basis_v.shifted != variant.shifted:
        raise ValueError(
            f"{variant.tag} needs {'shifted' if variant.shifted else 'unshifted'} bases"
        )
    if deim is not None:
        if deim.n != n:
            raise ValueError("DEIM basis row count does not match the block dimension")
        if deim.shifted != variant.shifted:
            raise ValueError("DEIM shift flag does not match the model variant")
    if variant.shifted:
        u_ref, v_ref = basis_u.shift_ref, basis_v.shift_ref
    else:
        u_ref = v_ref = np.zeros(n)
    return ReducedModel(
        variant,
        fom,
        basis_u.phi,
        basis_v.phi,
        u_ref,
        v_ref,
        deim_indices=None if deim is None else deim.indices,
        deim_weights=None if deim is None else deim.weights,
    )


# ---------------------------------------------------------------------------
# Artifact persistence: header, then phi_u, phi_v, u_ref, v_ref and, for
# sp-deim, the interpolation indices and weights.


def save_rom(model: ReducedModel, path):
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _ROM_MAGIC,
                _ROM_VERSION,
                _KIND_CODES[model.variant.kind],
                model.variant.shifted,
                model.n,
                model.r_u,
                model.r_v,
                model.s,
            )
        )
        for arr in (model.phi_u, model.phi_v, model.u_ref, model.v_ref):
            write_array(fh, arr)
        if model.s:
            write_array(fh, model.deim_indices, dtype="<u8")
            write_array(fh, model.deim_weights)


def load_rom(path, fom, state_energy=None) -> ReducedModel:
    """Load a reduced-model artifact and derive its operators from `fom`.

    The file holds only the bases, the references and the interpolation
    data; `ReducedModel` projects the configured full-order system onto
    them, as `build_rom` does.  The `state_energy` keyword is accepted for
    backward compatibility and ignored.

    Raises FileFormatError for a malformed file: a bad magic, version
    (only 2 is read) or variant code, a payload that does not match the
    header's sizes, non-finite values, or interpolation indices that are
    out of range or repeated.  Raises ValueError when the artifact's block
    dimension differs from the system's.
    """
    with open(path, "rb") as fh:
        head = read_exact(fh, _HEADER.size, "artifact header")
        magic, version, kind_code, shifted, n, r_u, r_v, s = _HEADER.unpack(head)
        if magic != _ROM_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != _ROM_VERSION:
            raise FileFormatError(
                f"{path}: unsupported version {version} (expected {_ROM_VERSION})"
            )
        if kind_code not in _KIND_NAMES or shifted > 1:
            raise FileFormatError(f"{path}: unknown variant code {kind_code}/{shifted}")
        if min(n, r_u, r_v) == 0:
            raise FileFormatError(f"{path}: implausible dimensions n={n}, r={r_u}/{r_v}")
        check_payload(fh, 8 * (n * (r_u + r_v + 2) + 2 * s), "model data", path)
        if n != fom.n:
            raise ValueError(
                f"{path}: the artifact's block dimension n = {n} does not match "
                f"the configured n = {fom.n}"
            )
        phi_u = read_array(fh, (n, r_u), "u-block basis")
        phi_v = read_array(fh, (n, r_v), "v-block basis")
        u_ref = read_array(fh, (n,), "u reference")
        v_ref = read_array(fh, (n,), "v reference")
        indices = weights = None
        if s:
            indices = read_array(fh, (s,), "interpolation indices", dtype="<u8")
            weights = read_array(fh, (s,), "interpolation weights")
    try:
        variant = RomVariant(_KIND_NAMES[kind_code], bool(shifted))
        return ReducedModel(variant, fom, phi_u, phi_v, u_ref, v_ref, indices, weights)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
