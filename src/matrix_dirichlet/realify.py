"""Conversion between complex matrix coordinates and real coordinate vectors.

Closed-form co-metric and drift tables are naturally written in terms of
complex entries z and their conjugates, while all differentiation and
simulation happens over real coordinates.  A layout states one constant
coefficient matrix, each complex entry as a linear form in the real
coordinates,

    entries = E @ x_real,

and everything else is read off it.  E's columns are orthogonal and its
non-zeros are 1 and +-i, so its left inverse is exact:

    x_real  = Re(D @ entries),    D = diag(1 / |column|^2) E^H.

Since Gamma is bilinear over first-order forms,

    Gamma(x_a, x_b) = (D T D^T)_ab   with  T_ef = Gamma(entry_e, entry_f),

and conversely T = E G E^T for a real co-metric G.  Drifts convert by
linearity: L(x_a) = Re(D @ L(entries)), L(entry_e) = (E @ L(x))_e.  For a
scalar function f(x) = F(entries), grad_x f = Re(E^T @ dF/dentries).

The Hermitian layout, which sits on the simulation hot path, converts
points (`to_real`/`from_real`) by gathers through index arrays over the
float view of the entries, both read off E, rather than products with E
and D; its coordinate names are read off the same gather.  Co-metrics and
drifts stay dense products: at state dimensions 4 to 27 an index-map
version measured no faster.  `simplex_layout` hands out one shared
layout per shape; every layout's arrays are read-only.
"""

import functools

import numpy as np


class Realifier:
    """Base class: a linear complex-entries <-> real-coordinates layout,
    stated by its (n_entries, real_dim) entry matrix E alone."""

    def __init__(self, E):
        self.n_entries, self.real_dim = E.shape
        # E's columns are orthogonal, so D = diag(1 / |column|^2) E^H
        D = (E.conj() / (abs(E) ** 2).sum(axis=0)).T.copy()
        for arr in (E, D):
            arr.flags.writeable = False
        self.E = E
        self.D = D

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
        iu, ju = np.triu_indices(d, 1)
        self.pairs = list(zip(iu.tolist(), ju.tolist()))
        # per block k (offset k*d^2 in both spaces): z_ii = x_i, and for
        # the p-th pair i < j, z_ij = x_re + i x_im and z_ji = x_re - i x_im
        # with x_re, x_im at d + 2p and d + 2p + 1
        off = (np.arange(n) * d * d)[:, None]
        diag = np.arange(d)
        c_re = (off + d + 2 * np.arange(iu.size)).ravel()
        e_up = (off + iu * d + ju).ravel()
        e_lo = (off + ju * d + iu).ravel()
        E = np.zeros((n * d * d, n * d * d), dtype=complex)
        E[(off + diag * (d + 1)).ravel(), (off + diag).ravel()] = 1.0
        E[e_up, c_re] = E[e_lo, c_re] = 1.0
        E[e_up, c_re + 1] = 1.0j
        E[e_lo, c_re + 1] = -1.0j
        super().__init__(E)
        # Index maps over the float view of the stacked entries, where
        # entry e occupies slots 2e (Re) and 2e + 1 (Im): coordinate c
        # enters slot s with weight F[c, s].
        F = np.ascontiguousarray(E.T).view(float)
        # to_real: x = entries_float[take], the first slot holding +1 in
        # each row of F, which is the upper entry's
        take = (F == 1.0).argmax(axis=1)
        # from_real: entries_float[fill] = sign * x[put] over the non-zeros
        # of F; the Im slots of the diagonal have no source and stay +0.0
        put, fill = np.nonzero(F)
        sign = F[put, fill]
        for arr in (take, fill, put, sign):
            arr.flags.writeable = False
        self._take = take
        self._fill = fill
        self._put = put
        self._sign = sign

    def coordinate_names(self):
        """Names of the real coordinates in layout order: Zk_di for the
        diagonal entries, then Zk_reij and Zk_imij for each pair i < j
        (k counts blocks from 1)."""
        entry, imag = np.divmod(self._take, 2)
        k, i, j = np.unravel_index(entry, (self.n, self.d, self.d))
        return ["Z%d_d%d" % (k + 1, i) if i == j
                else "Z%d_%s%d%d" % (k + 1, ("re", "im")[m], i, j)
                for k, i, j, m in zip(k.tolist(), i.tolist(), j.tolist(),
                                      imag.tolist())]

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
        a = np.arange(m)
        E = np.zeros((2 * m, 2 * m), dtype=complex)
        E[a, 2 * a] = E[m + a, 2 * a] = 1.0
        E[a, 2 * a + 1] = 1.0j
        E[m + a, 2 * a + 1] = -1.0j
        super().__init__(E)

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
        super().__init__(np.eye(m, dtype=complex))

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
