"""Numerical search for all critical points of the reduced potential.

Multi-start Newton on the gauge-fixed torus (theta_1 = 0): polish a
deterministic low-discrepancy lattice of seeds as one batch, merge the
seeds that polished to one point by rounding their angles to cells about
the dedup tolerance wide, classify the survivors as one batch, and group
them into families related by weight-preserving relabelings, reflection,
and rotation through a canonical key.  Tolerances are relative to the
weight scale, so weights mu and s*mu give the same catalogue.

The batch runs pair-major, as `vortexre.potential`'s pair tables do: the
polish and the classification hold one row per vortex or pair and one
column per seed, so each seed's norm or test over its N angles or
N(N-1)/2 pairs is an elementwise pass across the batch.  The polish
backtracks through its step halvings four at a time.

The catalogue stages after the polish make no numpy call per point, and
each takes an array to Python once, with one `tolist`:
- dedup clusters the rows by cell with one lexsort, and builds only the
  cell keys of each cluster in Python;
- classification reads every report field from one array per field;
- the family keys come from whole-array passes, the least of each
  point's 2N candidate sequences found one entry at a time, and only the
  key tuples are built in Python;
- the symmetric flags read the circle order and arcs in one pass over
  (K, N, N - 1) arrays, and the export builds each record from Python lists.
The seed filter, family keys and symmetric flags share one circle order
(`_circle`); dedup and the family keys share one neighbour-cell expansion
(`_reach_keys`) and one transitive grouping (`_grouped`), which does not
depend on the order of the rows.  At five equal weights and 4096 seeds
(264 points from 3316 converged seeds), interleaved medians on 2 cores
give dedup 1.8 ms, classification 3.4 ms, families 1.3 ms and the CLI's
JSON writer 5.1 ms, beside about 65 ms of seeding and polish.

Nothing proves a catalogue complete: seeds can miss critical points,
and `find` is not checked against the exact count of `certify`.  What is
checked is the Morse identity: with weights of one sign, `find` sums
(-1)^index over the catalogue, compares the sum with (N-1)!, and warns
on stderr when they differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vortexre.potential import (
    CirculationWeights,
    _classify,
    _gradient,
    _hessian,
    _pair_table,
    _scales,
)

TWO_PI = 2.0 * math.pi

_DEDUP_TOL = 1e-6   # rows within tol/2 on every angle are one point (see `_dedup`)
_SEED_GAP = 0.05    # seeds closer than this (radians) to a collision are dropped
_FAMILY_TOL = 1e-6  # gap unit of the family keys
_DEDUP_RULE = (
    "gauge theta_1 = 0; angles reduced mod 2*pi; points closer than the "
    "dedup tolerance in rotation distance merged, lexicographically "
    "smallest angle vector kept"
)


@dataclass(frozen=True, eq=False)
class CriticalPointSet:
    """A catalogue: row k of the read-only (K, N) array theta is a critical
    point and reports[k] its StabilityReport."""

    theta: np.ndarray
    reports: tuple
    mu: CirculationWeights

    def __len__(self):
        return len(self.reports)


def _primes(count):
    """The first `count` primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _lattice_seeds(dim, count):
    """Deterministic Kronecker lattice on the dim-torus, in radians."""
    alpha = np.array([math.sqrt(p) % 1.0 for p in _primes(dim)])
    k = np.arange(1, count + 1)[:, None]
    return (k * alpha % 1.0) * TWO_PI


def _gauged(x):
    """Prepend the gauge-fixed theta_1 = 0 column to reduced angles."""
    return np.concatenate((np.zeros((len(x), 1)), x), axis=1)


def _newton_steps(H, rhs):
    """Solve H_k s_k = rhs_k for every row; least squares where H_k is singular."""
    try:
        return np.linalg.solve(H, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass  # some H_k is singular: batched solve cannot say which
    steps = np.empty_like(rhs)
    for k in range(len(H)):
        try:
            steps[k] = np.linalg.solve(H[k], rhs[k])
        except np.linalg.LinAlgError:
            steps[k] = np.linalg.lstsq(H[k], rhs[k], rcond=None)[0]
    return steps


# the backtracking scales 2**-1 .. 2**-11, in blocks of four, four and three
_HALVING_BLOCKS = np.split(np.ldexp(1.0, -np.arange(1, 12)), (4, 8))
_MAX_ITER = 50  # the most Newton steps a seed takes


def _polish(seeds, w, tol_grad):
    """Newton on the reduced gradient (theta_1 fixed) for all seed rows at once.

    Returns the polished rows and a mask of those that converged.  Each
    seed runs its own iteration and leaves the active set when it is
    done: a collision at the seed fails it; a zero gradient, a non-finite
    step, or a step that neither the full Newton step nor 11 halvings of
    it make strictly lower the gradient infinity-norm ends it; otherwise
    it stops after _MAX_ITER steps.  A seed converged once its gradient
    norm fell below tol_grad times the product of the two largest |mu|,
    the scale of the gradient.  Seeds keep stepping past that while steps
    still help, so accepted points sit at the numerical floor rather than
    just under the tolerance.  Trials are taken modulo 2*pi, so an
    accepted trial is the next iterate, and its pair table and gradient
    serve that iterate.

    The iteration runs pair-major, as the pair tables do: angles,
    gradients and steps are (N-1, S), one column per active seed, so
    every per-seed test is elementwise across the batch.  The full step
    is tried for every active seed at once, and its table and gradient
    become the next state of each seed it improves.  The seeds it fails
    backtrack through the halvings in blocks, 2**-1..2**-4, 2**-5..2**-8
    and 2**-9..2**-11, with one evaluation per block, and each takes the
    first halving that improves it.  A trial whose raw value x + s*step
    and whose wrapped value both equal the iterate bit for bit is the
    iterate itself: it cannot be better, and neither can any smaller
    power-of-two scale, which rounds to x as well, so the seed fails
    there, and neither that trial nor the smaller ones are evaluated.
    The accepted iterate is the one that halvings tried one at a time
    would accept, but a block may evaluate, and discard, the halvings
    after the one a seed accepts: three evaluations at most, where one
    per halving took up to 11.  The active seeds' angles, tables and
    gradients are kept compact; a seed's angles are written back when it
    leaves.
    """
    tol = tol_grad * _scales(w)[1]

    def evaluate(theta):
        table = _pair_table(np.concatenate((np.zeros((1, theta.shape[1])), theta)))
        g = _gradient(table, w)[1:]
        return table, g, np.abs(g).max(axis=0)  # NaN on collisions

    out = np.array(seeds, dtype=float)
    converged = np.zeros(len(out), dtype=bool)
    rows = np.arange(len(out))
    x = out.T.copy()
    table, g, gnorm = evaluate(x)
    collided = np.isnan(g[0])
    for _ in range(_MAX_ITER):
        if not len(rows):
            break
        converged[rows[gnorm < tol]] = True
        go = ~np.isnan(g[0]) & (gnorm != 0.0)
        if not go.all():
            out[rows[~go]] = x[:, ~go].T
            rows, x, table, g, gnorm = (
                rows[go], x[:, go], table[:, :, go], g[:, go], gnorm[go])
        step = _newton_steps(np.moveaxis(_hessian(table, w)[1:, 1:], -1, 0), -g.T).T
        raw = x + step
        trial = raw % TWO_PI
        go = np.isfinite(step).all(axis=0) & _moves(x, raw, trial)
        if not go.all():
            out[rows[~go]] = x[:, ~go].T
            rows, x, step, trial, gnorm = (
                rows[go], x[:, go], step[:, go], trial[:, go], gnorm[go])
        table, g, tnorm = evaluate(trial)
        # Backtrack the seeds the full step fails, a block of halvings at a
        # time, until a trial improves or is the iterate.
        fail = np.flatnonzero(~(tnorm < gnorm))
        for scales in _HALVING_BLOCKS:
            if not len(fail):
                break
            live, t = _halvings(x[:, fail], step[:, fail], scales)
            t_table, t_g, t_norm = evaluate(t)
            better = np.zeros_like(live)
            better[live] = t_norm < np.broadcast_to(gnorm[fail], live.shape)[live]
            hit = better.any(axis=0)
            # each seed's first improving trial, as a column of t
            col = (np.cumsum(live).reshape(live.shape) - 1)[
                better.argmax(axis=0)[hit], np.flatnonzero(hit)]
            done = fail[hit]
            trial[:, done], table[:, :, done], g[:, done], tnorm[done] = (
                t[:, col], t_table[:, :, col], t_g[:, col], t_norm[col])
            # a seed whose every trial moved and none improved goes on
            fail = fail[~hit & live[-1]]
        go = tnorm < gnorm
        if not go.all():
            out[rows[~go]] = x[:, ~go].T
            rows, trial, table, g, tnorm = (
                rows[go], trial[:, go], table[:, :, go], g[:, go], tnorm[go])
        x, gnorm = trial, tnorm
    out[rows] = x.T
    return out % TWO_PI, converged & ~collided


def _halvings(x, step, scales):
    """The trials x + s*step modulo 2*pi at the given scales s: a
    (scale, seed) mask of each seed's trials before its first that is
    the iterate (see `_moves`), and those trials as the columns of one
    (N-1, M) block, in the order of the mask."""
    raw = x + scales[:, None, None] * step
    wrapped = raw % TWO_PI
    live = np.logical_and.accumulate(_moves(x, raw, wrapped), axis=0)
    return live, np.moveaxis(wrapped, 1, 0)[:, live]


def _moves(x, raw, wrapped):
    """Seeds where the trial x + s*step, raw or wrapped modulo 2*pi,
    differs from x in some bit (so -0.0 and 0.0 differ); the angles run
    along the second-to-last axis and the seeds along the last."""
    bits = x.view(np.int64)
    return ((raw.view(np.int64) != bits) | (wrapped.view(np.int64) != bits)).any(axis=-2)


def _dedup(points, tol):
    """Merge the rows of points that lie close together on the gauge-fixed
    torus, keeping the lexicographically least row of each merged group;
    the kept rows as lists of Python floats, in no particular order.

    Each angle is rounded down to one of `cells` equal cells of the
    circle, at most 2 tol wide, and the rows that share a cell on every
    angle form a cluster: one lexsort by cell, then by angle, puts each
    cluster together behind its least row.  A cluster reaches the next
    cell on an angle when one of its rows lies within 0.3 tol of that
    cell's edge, so it reaches at most one cell on either side of its own.
    Its keys are the tuples of one reached cell per angle, at most
    3**(N-1) of them (`_reach_keys`).  Clusters whose keys meet merge,
    directly or through a chain of clusters, as families do (`_grouped`).

    So two rows whose angles each differ by at most tol/2, modulo 2*pi,
    always share a key: on each angle they share a cell, or one of them
    lies within tol/4 of the edge between their cells.  Two rows that
    share a key differ by less than a cell and two reaches, 2.6 tol, on
    every angle.  So two rows within tol/2 merge, and two rows further
    apart on some angle merge only through a chain of rows between them.
    On the catalogues whose `find` output the tests freeze (N = 3 to 8),
    the seeds polished to one point lie within 5.3e-8 radians of each
    other on every angle, and two distinct points 0.26 radians or more
    apart on some angle, so at the default tol of 1e-6 no point is split
    or merged with another.  With theta_1 = 0 for both rows, the largest
    difference bounds their rotation distance.
    """
    if not len(points):
        return []
    cells = math.ceil(TWO_PI / (2.0 * tol))
    q = points * (cells / TWO_PI)  # in cells
    reach = 0.3 * tol * (cells / TWO_PI)
    cell = np.floor(q)
    # an angle of 2*pi may round to the cell at 2*pi, which the keys wrap
    # to cell 0 with the cells it reaches
    order = np.lexsort((*points.T[::-1], *cell.T[::-1]))
    ranked = cell[order].astype(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    # whether a cluster reaches the cell below or above its own
    off = (q - cell)[order]
    row, keys = _reach_keys(ranked[starts], np.logical_or.reduceat(off < reach, starts),
                            np.logical_or.reduceat(off > 1.0 - reach, starts))
    key_sets = [[] for _ in starts]
    for r, key in zip(row.tolist(), (keys % cells).tolist()):
        key_sets[r].append(tuple(key))
    least = points[order[starts]].tolist()
    return [min(least[k] for k in group) for group in _grouped(key_sets)]


def find_all_critical_points(mu, seeds=4096, tol_grad=1e-10, tol_zero=1e-8):
    """All critical points of V for the given weights, modulo rotation.

    Polishes `seeds` lattice points with Newton's method, drops seeds
    that start within _SEED_GAP radians of a collision, deduplicates
    modulo rotation, and classifies every survivor.  Degenerate critical
    points are kept and flagged, never dropped.
    """
    w = CirculationWeights(tuple(mu)) if not isinstance(mu, CirculationWeights) else mu
    start = _lattice_seeds(len(w) - 1, seeds)
    start = start[_circle(_gauged(start))[1].min(axis=1) >= _SEED_GAP]
    polished, ok = _polish(start, w.array, tol_grad)
    found = sorted(_dedup(polished[ok], _DEDUP_TOL))
    theta = _gauged(np.reshape(found, (len(found), len(w) - 1)))
    reports = _classify(_pair_table(theta.T), w.array, 10.0 * tol_grad, tol_zero)
    keep = [k for k, report in enumerate(reports) if report is not None]
    theta = theta[keep]
    theta.flags.writeable = False
    return CriticalPointSet(theta=theta, reports=tuple(reports[k] for k in keep), mu=w)


# -- symmetry and families ---------------------------------------------------

# A gap this close to a rounding boundary, in units of the family
# tolerance, is rounded both ways.
_ROUNDING_MARGIN = 0.01


def _circle(theta):
    """Circle order of the rows of the (K, N) angle array theta: the
    vortex indices sorted by angle mod 2 pi, and the (K, N) arcs, column k
    running from the k-th of them to the next and the last closing the
    circle."""
    theta = np.asarray(theta, dtype=float) % TWO_PI
    order = np.argsort(theta, axis=1, kind="stable")
    ranked = np.take_along_axis(theta, order, axis=1)
    return order, np.diff(ranked, axis=1, append=ranked[:, :1] + TWO_PI)


def _reach_keys(cells, below, above):
    """Keys of the rows of the (K, M) integer array cells: each row, and
    a copy for every combination of the neighbour cells it reaches, cell
    - 1 where the (K, M) mask below holds and cell + 1 where above does.
    Returns the (R,) index of the row each key came from and the keys."""
    row, keys = np.arange(len(cells)), cells
    for j in np.flatnonzero((below | above).any(axis=0)).tolist():
        down, up = np.flatnonzero(below[row, j]), np.flatnonzero(above[row, j])
        shifted = keys[np.concatenate((down, up))]
        shifted[:, j] += np.repeat((-1, 1), (len(down), len(up)))
        row = np.concatenate((row, row[down], row[up]))
        keys = np.concatenate((keys, shifted))
    return row, keys


def _family_keys(theta, mu, tol):
    """Canonical keys of weighted configurations on the circle, one set
    per row of the (K, N) angle array theta.

    The key is the cyclic sequence of (weight, gap) in circle order, with
    gaps in whole units of tol, least over the N rotations of the
    sequence and of its reflection.  It is the same for every image under
    relabeling of equal weights, reflection and rotation.  A gap near a
    rounding boundary is rounded both ways, so each row gets a set of
    keys: configurations whose sets meet are images of each other.

    Everything up to the keys runs on whole arrays: one variant row per
    choice of rounding, the 2N candidate sequences of every variant as a
    (V, 2N, 2N) array of interleaved weights and gaps, and the least of
    them found one entry at a time.  Only the key tuples are built in
    Python, two lists per variant.
    """
    order, arcs = _circle(theta)
    count, n = arcs.shape
    q = arcs / tol
    nearest = np.rint(q)
    off = q - nearest
    row, gaps = _reach_keys(nearest.astype(np.int64), off < _ROUNDING_MARGIN - 0.5,
                            off > 0.5 - _ROUNDING_MARGIN)
    weights = np.asarray(mu, dtype=float)[order[row]]
    # the N rotations of the sequence and of its reflection, in which circle
    # order reverses and each vortex takes the gap before it: (V, 2N, N, 2)
    k = np.arange(n)
    shifts = (k[:, None] + k) % n
    w = np.concatenate((weights[:, shifts], weights[:, n - 1 - k][:, shifts]), axis=1)
    g = np.concatenate((gaps[:, shifts], gaps[:, (n - 2 - k) % n][:, shifts]), axis=1)
    seq = np.stack((w, g), axis=-1)
    least = np.ones(seq.shape[:2], dtype=bool)
    for entry in seq.reshape(len(seq), 2 * n, 2 * n).transpose(2, 0, 1):
        least &= entry == np.where(least, entry, np.inf).min(axis=1, keepdims=True)
    best = seq[np.arange(len(seq)), least.argmax(axis=1)]
    out = [set() for _ in range(count)]
    for r, w, g in zip(row.tolist(), best[:, :, 0].tolist(),
                       best[:, :, 1].astype(np.int64).tolist()):
        out[r].add(tuple(zip(w, g)))
    return out


def _grouped(key_sets):
    """The connected components of the items under "their key sets meet",
    in order of their first member, each a list of item indices in
    order.  A union-find over the items: each key links the items that
    hold it to its first holder, and each root is its component's least
    item, so the components do not depend on the order of the items."""
    root = list(range(len(key_sets)))

    def least(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    holder = {}
    for i, keys in enumerate(key_sets):
        for k in keys:
            j = holder.setdefault(k, i)
            if j != i:
                a, b = least(j), least(i)
                root[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(key_sets)):
        groups.setdefault(least(i), []).append(i)
    return list(groups.values())


def group_into_families(point_set):
    """Partition critical points into symmetry families.

    Two points share a family when some weight-preserving relabeling,
    optionally composed with the reflection theta -> -theta, maps one to
    the other up to rotation.  Families come in order of their first
    member, each as a sorted tuple of point indices.
    """
    keys = _family_keys(point_set.theta, point_set.mu.mu, _FAMILY_TOL)
    return [tuple(members) for members in _grouped(keys)]


def _symmetric(theta, tol):
    """(K,) mask of the rows of the (K, N) angle array theta that an axis
    through the center and one of their vortices reflects onto themselves
    within tol, weights ignored.

    The reflection in the axis through a vortex reverses the circle order
    about it: the vortex m + 1 steps ahead of it maps onto the one m + 1
    steps behind, so for every m < N - 1 the arcs summed over the m + 1
    steps ahead and over the m + 1 steps behind differ by less than tol.
    The temporaries are (K, N, N - 1).
    """
    _, arcs = _circle(theta)
    n = arcs.shape[1]
    a, m = np.arange(n)[:, None], np.arange(n - 1)
    # entry (r, a, m): the arcs over m + 1 steps ahead less those behind
    skew = arcs[:, (a + m) % n]
    skew -= arcs[:, (a - 1 - m) % n]
    np.cumsum(skew, axis=2, out=skew)
    return (np.abs(skew, out=skew) < tol).all(axis=2).any(axis=1)


def export_critical_points(point_set, families):
    """JSON-ready record of a critical point set with family labels.

    A point is "symmetric" when an axis through the center and one of its
    vortices reflects its angles onto themselves within 1e-6 radians,
    weights ignored: the vortices m + 1 steps ahead of that vortex in
    circle order and m + 1 steps behind it lie at mirror angles, for
    every m (`_symmetric`)."""
    family = [None] * len(point_set)
    for fid, members in enumerate(families):
        for m in members:
            family[m] = fid
    symmetric = _symmetric(point_set.theta, 1e-6).tolist()
    mu = point_set.mu.mu
    records = [{"angles": theta, "mu": list(mu), "family": fid, "symmetric": sym,
                **report.to_dict()}
               for theta, fid, sym, report in zip(point_set.theta.tolist(), family,
                                                  symmetric, point_set.reports)]
    return {
        "count": len(point_set),
        "family_count": len(families),
        "dedup_rule": _DEDUP_RULE,
        "points": records,
    }
