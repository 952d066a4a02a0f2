"""Conversion between complex matrix coordinates and real coordinate vectors.

Closed-form co-metric and drift tables are naturally written in terms of
complex entries z and their conjugates, while all differentiation and
simulation happens over real coordinates.  A layout holds two constant
coefficient matrices

    entries = E @ x_real          (each complex entry as a linear form)
    x_real  = Re(D @ entries)     (each real coordinate as a linear form)

which define every conversion.  Since Gamma is bilinear over first-order
forms,

    Gamma(x_a, x_b) = (D T D^T)_ab   with  T_ef = Gamma(entry_e, entry_f),

and conversely T = E G E^T for a real co-metric G.  Drifts convert by
linearity: L(x_a) = Re(D @ L(entries)), L(entry_e) = (E @ L(x))_e.  For a
scalar function f(x) = F(entries), grad_x f = Re(E^T @ dF/dentries).

E and D have at most two non-zeros per row.  The Hermitian layout, which
sits on the simulation hot path, converts points (`to_real`/`from_real`)
by gathers through precomputed index arrays rather than products with E and
D.  Co-metrics and drifts stay dense products: at state dimensions 4 to 27
an index-map version measured no faster.  `simplex_layout` hands out one
shared, read-only layout per shape.
"""

import functools

import numpy as np


class Realifier:
    """Base class: any linear complex-entries <-> real-coordinates layout."""

    # subclasses set these
    real_dim = 0
    n_entries = 0
    E = None
    D = None

    def gamma_to_real(self, T):
        """Real co-metric of an entry-space Gamma table or of a stack."""
        return (self.D @ np.asarray(T) @ self.D.T).real

    def gamma_to_entries(self, G, other):
        """Entry-space Gamma table of a real co-metric block, self by other."""
        return self.E @ np.asarray(G) @ other.E.T

    def drift_to_real(self, l_entries):
        """Real drift of an entry-space drift or of a stack (S, entries)."""
        return (np.asarray(l_entries) @ self.D.T).real

    def drift_to_entries(self, l_real):
        return self.E @ np.asarray(l_real)

    def grad_to_real(self, g_entries):
        """Real gradient of f(x) = F(entries) from entry-wise derivatives."""
        return (self.E.T @ np.asarray(g_entries)).real


class HermLayout(Realifier):
    """n Hermitian d x d matrices.

    Real coordinates per block: the d diagonal entries first, then (Re, Im)
    pairs for i < j in lexicographic order.  The entry list is the full set
    of n*d^2 complex entries (k, i, j), so conjugate entries appear
    explicitly and closed-form tables can be indexed without case splits.
    """

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.real_dim = n * d * d
        self.n_entries = n * d * d

        iu, ju = np.triu_indices(d, 1)
        self.pairs = pairs = list(zip(iu.tolist(), ju.tolist()))

        # per block k (offset k*d^2 in both spaces): entry indices of the
        # diagonal, upper and lower entries, and the real coordinates of the
        # diagonal and of each (Re, Im) pair
        off = (np.arange(n) * d * d)[:, None]
        e_diag = (off + np.arange(d) * (d + 1)).ravel()
        e_up = (off + iu * d + ju).ravel()
        e_lo = (off + ju * d + iu).ravel()
        c_diag = (off + np.arange(d)).ravel()
        c_re = (off + d + 2 * np.arange(len(pairs))).ravel()
        c_im = c_re + 1

        E = np.zeros((self.n_entries, self.real_dim), dtype=complex)
        E[e_diag, c_diag] = 1.0
        E[e_up, c_re] = 1.0
        E[e_up, c_im] = 1.0j
        E[e_lo, c_re] = 1.0
        E[e_lo, c_im] = -1.0j
        D = np.zeros((self.real_dim, self.n_entries), dtype=complex)
        D[c_diag, e_diag] = 1.0
        D[c_re, e_up] = 0.5
        D[c_re, e_lo] = 0.5
        D[c_im, e_up] = -0.5j
        D[c_im, e_lo] = 0.5j

        # Index maps over the float view of the stacked entries, where
        # entry e occupies slots 2e (Re) and 2e + 1 (Im).
        # to_real: x = entries_float[take]
        take = np.empty(self.real_dim, dtype=np.intp)
        take[c_diag] = 2 * e_diag
        take[c_re] = 2 * e_up
        take[c_im] = 2 * e_up + 1
        # from_real: entries_float[fill] = sign * x[put], sign -1 in the Im
        # slots of lower entries; the Im slots of the diagonal have no
        # source and stay +0.0
        fill = np.concatenate([2 * e_diag, 2 * e_up, 2 * e_lo, 2 * e_up + 1,
                               2 * e_lo + 1])
        put = np.concatenate([c_diag, c_re, c_re, c_im, c_im])
        sign = np.repeat([1.0, -1.0], [fill.size - e_lo.size, e_lo.size])
        for arr in (E, D, take, fill, put, sign):
            arr.flags.writeable = False
        self.E = E
        self.D = D
        self._take = take
        self._fill = fill
        self._put = put
        self._sign = sign

    def coordinate_names(self):
        """Names of the real coordinates in layout order: Zk_di for the
        diagonal entries, then Zk_reij and Zk_imij for each pair i < j
        (k counts blocks from 1)."""
        names = []
        for k in range(1, self.n + 1):
            names += ["Z%d_d%d" % (k, i) for i in range(self.d)]
            for i, j in self.pairs:
                names += ["Z%d_re%d%d" % (k, i, j), "Z%d_im%d%d" % (k, i, j)]
        return names

    def to_real(self, Z_list):
        """Real coordinates of n Hermitian blocks (a list or an (n, d, d)
        array; a bare (d, d) block when n = 1).  A stack of points
        (..., n, d, d) gives (..., real_dim).  Only the diagonal and upper
        triangle are read."""
        Z = np.ascontiguousarray(Z_list, dtype=complex)
        if Z.shape == (self.d, self.d) and self.n == 1:
            Z = Z[None]
        if Z.shape[-3:] != (self.n, self.d, self.d):
            raise ValueError("expected blocks of shape (..., %d, %d, %d), "
                             "got %s" % (self.n, self.d, self.d, Z.shape))
        x = Z.view(float).reshape(Z.shape[:-3] + (2 * self.real_dim,))
        return x.take(self._take, axis=-1)

    def from_real(self, x):
        """The n Hermitian blocks of x, as one (n, d, d) complex array; a
        stack of points (..., real_dim) gives (..., n, d, d)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2 * self.n_entries,))
        out[..., self._fill] = x.take(self._put, axis=-1) * self._sign
        return out.view(complex).reshape(*x.shape[:-1], self.n, self.d, self.d)


@functools.cache
def simplex_layout(n, d):
    """The shared HermLayout of n Hermitian d x d blocks.

    One read-only instance per (n, d) for the life of the process, so the
    simulation loop converts points without rebuilding index maps.
    """
    return HermLayout(n, d)


class CplxLayout(Realifier):
    """An unconstrained complex array of the given shape, as its m entries
    z_0..z_{m-1} in C order.

    Real coordinates interleave as (Re z_0, Im z_0, Re z_1, Im z_1, ...);
    the entry list is (z_0..z_{m-1}, conj z_0..conj z_{m-1}).
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.m = m = int(np.prod(self.shape))
        self.real_dim = 2 * m
        self.n_entries = 2 * m

        a = np.arange(m)
        E = np.zeros((2 * m, 2 * m), dtype=complex)
        E[a, 2 * a] = E[m + a, 2 * a] = 1.0
        E[a, 2 * a + 1] = 1.0j
        E[m + a, 2 * a + 1] = -1.0j
        D = np.zeros((2 * m, 2 * m), dtype=complex)
        D[2 * a, a] = D[2 * a, m + a] = 0.5
        D[2 * a + 1, a] = -0.5j
        D[2 * a + 1, m + a] = 0.5j
        self.E = E
        self.D = D

    def to_real(self, z):
        return np.array(z, dtype=complex).reshape(self.m).view(float)

    def from_real(self, x):
        return (np.asarray(x[0::2]) + 1j * np.asarray(x[1::2])).reshape(
            self.shape)

    def assemble_entry_gamma(self, Gzz, Gzw):
        """Full 2m x 2m entry table from Gamma(z,z) and Gamma(z, conj z)."""
        Gzz = np.asarray(Gzz)
        Gzw = np.asarray(Gzw)
        top = np.hstack([Gzz, Gzw])
        bot = np.hstack([Gzw.conj(), Gzz.conj()])
        return np.vstack([top, bot])

    def assemble_entry_drift(self, Lz):
        Lz = np.asarray(Lz, dtype=complex).ravel()
        return np.concatenate([Lz, Lz.conj()])


class RealLayout(Realifier):
    """Plain real coordinates (identity layout), for mixed coordinate stacks."""

    def __init__(self, m):
        self.m = m
        self.real_dim = m
        self.n_entries = m
        self.E = np.eye(m, dtype=complex)
        self.D = np.eye(m, dtype=complex)

    def to_real(self, v):
        return np.asarray(v, dtype=float).ravel()

    def from_real(self, x):
        return np.asarray(x)


class CoordStack:
    """Named concatenation of layouts, with block slicing helpers."""

    def __init__(self, segments):
        # segments: list of (name, layout)
        self.segments = list(segments)
        self.layouts = {}
        self.slices = {}
        off = 0
        for name, layout in self.segments:
            self.layouts[name] = layout
            self.slices[name] = slice(off, off + layout.real_dim)
            off += layout.real_dim
        self.real_dim = off

    def pack(self, parts):
        """parts: dict name -> native value for that layout."""
        x = np.empty(self.real_dim)
        for name, layout in self.segments:
            x[self.slices[name]] = layout.to_real(parts[name])
        return x

    def unpack(self, x, name):
        return self.layouts[name].from_real(x[self.slices[name]])

    def block(self, M, a, b):
        """Extract the (a, b) block of a stacked real matrix."""
        return np.asarray(M)[self.slices[a], self.slices[b]]

    def entries_block(self, G, a, b):
        """Entry-space Gamma table for segments a, b of a real co-metric."""
        la, lb = self.layouts[a], self.layouts[b]
        return la.gamma_to_entries(self.block(G, a, b), lb)

    def drift_entries(self, l_real, a):
        return self.layouts[a].drift_to_entries(np.asarray(l_real)[self.slices[a]])
