"""The settle rule against its vectorized oracle.

zeros._settle decides the cups of the cells it is handed one at a time in
Python floats, and zeros._grid_cells hands it the cells that its hull and
monotone tests leave.  _vectorized_settle and _vectorized_grid_cells below
decide every cell with numpy arrays alone, cups included: every decision,
count and bracket must match them to the bit."""

import numpy as np
import pytest

import trigzeros.zeros as zeros_module
from trigzeros.models import CoefficientModel, mix64, sample_coefficients
from trigzeros.zeros import _hull_sides


def _vectorized_settle(lo, hi, f_lo, f_hi, d_lo, d_hi, mono, convex, concave, jet, delta,
                       want_roots):
    """The settle rule on arrays, cups included (zeros._settle states it)."""
    neg = np.signbit(f_lo)
    change = neg != np.signbit(f_hi)
    bent = convex | concave
    settled = mono | bent
    ones = change & settled
    count = int(np.count_nonzero(ones))
    brackets = [(lo[ones], hi[ones], f_lo[ones], f_hi[ones])] if want_roots else []
    cup = np.flatnonzero(bent & ~change & (neg == concave))
    if cup.size:
        a, b = lo[cup], hi[cup]
        s = np.where(neg[cup], -1, 1)
        w = b - a
        g0, g1 = s * d_lo[cup], s * d_hi[cup]
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(g0 >= 0.0, a, np.where(g1 <= 0.0, b, a + w * g0 / (g0 - g1)))
        y = np.clip(y, a, b)
        fy, dfy = jet(y, cup)
        gy, dgy = s * fy, s * dfy
        tangent_min = gy + np.minimum(dgy * (a - y), dgy * (b - y))
        empty = tangent_min > delta[0] + w * delta[1]
        two = ~empty & (gy < -delta[0])
        settled[cup[~(empty | two)]] = False
        count += 2 * int(np.count_nonzero(two))
        if want_roots:
            at, y, fy = cup[two], y[two], fy[two]
            brackets += [(lo[at], y, f_lo[at], fy), (y, hi[at], fy, f_hi[at])]
    return count, brackets, settled


def _positions(layout, k):
    """The abscissae of the sequence nodes k, each offset gathered."""
    return layout.h * (k + layout.offsets[k % layout.offsets.size])


def _vectorized_grid_cells(seq, cells, layout, cert, clear0, jet, want_roots):
    """zeros._grid_cells with the curvature test on arrays, handing the
    convex and concave cells to _vectorized_settle."""
    delta = cert.delta_grid
    (f_lo, s0), (f_hi, s1) = seq.take(cells, axis=1), seq.take(cells + 1, axis=1, mode="wrap")
    if layout.flip and cells.size and cells[-1] == layout.columns - 1:
        f_hi[-1], s1[-1] = -f_hi[-1], -s1[-1]
    thirds, inverse = layout.width_tables
    entry = cells & (thirds.size - 1)
    above, below = _hull_sides(f_lo, s0, f_hi, s1, thirds[entry], clear0)
    zero_free = above | below
    clear_end, clear_mid = map(max, zip(*[cert.slope_clearance(layout.h * width, delta)
                                          for width in layout.widths]))
    mid = f_hi - f_lo
    mid *= inverse[entry]
    mid -= s0
    mid -= s1
    mono = (((np.minimum(s0, s1) > clear_end) & (mid > clear_mid))
            | ((np.maximum(s0, s1) < -clear_end) & (mid < -clear_mid)))
    change = mono & (np.signbit(f_lo) != np.signbit(f_hi)) & ~zero_free
    count = int(np.count_nonzero(change))
    brackets = []
    if want_roots:
        at = cells[change]
        lo, hi = _positions(layout, at), _positions(layout, at + 1)
        v_lo, v_hi = f_lo[change], f_hi[change]
        at_lo = np.abs(v_lo) <= delta[0]
        at_hi = np.abs(v_hi) <= delta[0]
        brackets.append((np.where(at_hi, hi, lo), np.where(at_lo, lo, hi), v_lo, v_hi))
    rest = np.flatnonzero(~(zero_free | mono))
    if not rest.size:
        return count, brackets, (f_lo[rest],) * 4
    cells, f_lo, s0, f_hi, s1, mid = (column[rest] for column in (cells, f_lo, s0, f_hi, s1, mid))
    bend = max(cert.bend_clearance(layout.h * width, delta) for width in layout.widths)
    rise_lo = mid - s0
    rise_hi = s1 - mid
    certain = np.minimum(np.abs(f_lo), np.abs(f_hi)) > delta[0]
    concave = certain & (np.maximum(rise_lo, rise_hi) < -bend)
    convex = certain & (np.minimum(rise_lo, rise_hi) > bend)
    lo, hi = _positions(layout, np.array([cells, cells + 1]))
    found, bracketed, settled = _vectorized_settle(lo, hi, f_lo, f_hi, s0, s1, np.False_, convex,
                                                   concave, jet, cert.delta_point, want_roots)
    left = ~settled
    return count + found, brackets + bracketed, (lo[left], hi[left], f_lo[left], f_hi[left])


def _same_bits(got, want):
    """Whether two outcomes agree: ints and bools by value, arrays by dtype,
    shape and bytes, tuples and lists entry by entry."""
    if isinstance(want, (tuple, list)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(_same_bits(g, w) for g, w in zip(got, want)))
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and got.tobytes() == want.tobytes())
    return type(got) is type(want) and got == want


class TestSettleOracle:
    """Every leftover-cell set of these trials, from the grid pass and the
    local stage, is decided as the vectorized oracle decides it."""

    # (kind, dep, ell, n, trials): W on the whole circle (trig and cosine,
    # r != 0), T on the whole circle (i.i.d. trig) and on the half circle
    # (i.i.d. cosine)
    ROWS = [("trig", "periodic", 3, 400, 60), ("cosine", "periodic", 3, 400, 60),
            ("trig", "iid", None, 199, 100), ("cosine", "iid", None, 199, 100)]

    @pytest.mark.parametrize("kind, dep, ell, n, trials", ROWS)
    def test_cells_are_decided_as_the_oracle_decides(self, monkeypatch, kind, dep, ell, n,
                                                     trials):
        """Each trial runs at 16 and at 4 nodes a degree (the coarse grid
        sends cells to the local stage), with and without roots.  Both
        functions are compared on the arguments of every call the count
        makes, before the next trial overwrites the grid rows: count,
        settled mask and brackets, or count, brackets and the cells left,
        bit for bit.  The four rows hand _settle 613 cell sets from the
        grid pass and 805 from the local stage, with 8798 cups among
        them."""
        grid_cells, settle = zeros_module._grid_cells, zeros_module._settle
        sets = {"grid": 0, "local": 0}
        cups = 0

        def grid_spy(*args):
            got = grid_cells(*args)
            assert _same_bits(got, _vectorized_grid_cells(*args))
            return got

        def settle_spy(*args):
            nonlocal cups
            got = settle(*args)
            assert _same_bits(got, _vectorized_settle(*args))
            f_lo, f_hi, mono, convex, concave = args[2], args[3], *args[6:9]
            sets["local" if np.ndim(mono) else "grid"] += 1
            neg = np.signbit(f_lo)
            cups += int(np.count_nonzero((convex | concave) & (neg == np.signbit(f_hi))
                                         & (neg == concave)))
            return got

        monkeypatch.setattr(zeros_module, "_grid_cells", grid_spy)
        monkeypatch.setattr(zeros_module, "_settle", settle_spy)
        model = CoefficientModel(kind=kind, dep=dep, ell=ell)
        for t in range(trials):
            sample = sample_coefficients(model, n, seed=mix64(48, n, t))
            for grid_per_degree in (16, 4):
                zeros_module.count_zeros(sample, grid_per_degree=grid_per_degree,
                                         want_roots=t % 2 == 0)
        assert sets["grid"] >= trials and sets["local"] >= trials, sets
        assert cups >= 4 * trials, cups
