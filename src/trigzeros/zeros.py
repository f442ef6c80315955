"""Zero counting: a certified cell-by-cell count on one spectral grid,
a proof from the carrier of the lattice numerator for periodic samples
with r != 0, and an exact phase count for the reduced factor of
periodic samples that factor (r = 0, m >= 2).

Grid route (i.i.d., r != 0, and r = 0 with m = 1)
-------------------------------------------------
The circle is cut into the N cells [x_i, x_{i+1}] of the uniform open
grid x_i = 2 pi (i + g)/N, wrap cell (x_{N-1}, x_0 + 2 pi) included,
with g = GRID_OFFSET the golden section and h = 2 pi/N.
N = smooth_size(max(256, grid_per_degree * n)) is the smallest 5-smooth
size (no prime factor above 5) with grid_per_degree (GRID_PER_DEGREE = 16)
nodes a degree of the function counted, so the real FFT never meets an
awkward length.  T and T' are read once on this grid, after the
coefficients are scaled by a power of two so that the largest is O(1):
one evaluate_on_grid call with order=(0, 1), a two-row real transform of
N nodes.  T is counted for the i.i.d. samples and for m = 1 with r = 0
(ell = n + 1), which repeat nothing; every periodic sample with r != 0
is counted from its lattice numerator W = 2 sin(ell x/2) T instead
(Lattice numerator, below): the same certificate, on W's grid of its
own.

A cosine sample is even, T(2 pi - x) = T(x), and is certified on the
half circle instead (one counted from W keeps the whole circle: W is
odd).  N is then the smallest 5-smooth multiple of 4 at or above the
same bound, and the transform has N/2 nodes, offset g/2: the
even nodes (2k + g) h of the grid above.  Their mirror images
(2k + 2 - g) h, where T is equal and T' negated, are nodes too, so on
[-g h, pi + g h] nodes and mirror images alternate and the cells
alternate between the widths 2 g h and 2 (1 - g) h.  Every cell counts
for itself and its mirror image on (pi, 2 pi), but the two centred on 0
and pi are their own mirror images and count once.  The node set
is symmetric, and every node is an irrational multiple of h; the cell
midpoints are the rational 2 pi k/N, so the local stage below splits
these cells at the golden fraction lo + g (hi - lo) (no split point of
ten levels is rational in exact arithmetic over Q(g)), where the whole
circle splits at midpoints.  The layout (_Layout) holds the node
positions, cell widths, weights and split fraction of both as data, for
one certificate; on the half circle T and T' are copied once per trial
into the sequence of nodes along [-g h, pi + g h], so every test after
the transform reads one sequence of nodes on both layouts.  Where a
bound below takes one width for all cells it takes the widest, w_max (h
on the whole circle, 2 g h on the half): each grows with the width.

T's rows T, T' and |T|, |T'| reuse per-thread arrays kept at the largest
grid seen (_scratch), not faulted in again by every trial; what depends
on the degree and N alone (the twist or W's folded table, the powers
j^k, the certificate's factors, the power table of the local stage, the
layout) is built once and cached.  What depends on the sample is reduced
once: its largest coefficient (PolySample.peak, which the sampler hands
over from its draw) gives the finiteness and all-zero checks and the
power of two of the scaling, and the zero-free clearance of the base
grid, taken at w_max, is one scalar.  count_zeros builds the counted
function's coefficient record once, at exponent 0, for the grid, the
certificate and the pointwise jet: T's (trigpoly._TableCoefficients) or
W's (trigpoly._NumeratorTerms).  The jet's per-sample part, T's
coefficients laid out on the power table or W's weights d_p (i f_p)^k, is
built on first use and shared by the grid's cups, the local stage and
Newton.

Each cell of width w is then proved to hold 0, 1 or 2 zeros, or left
undecided.  The proof rests on

  M >= max |T|, the smaller of sum_j |c_j| and (max_i |T(x_i)| +
      delta_0)/(1 - (n w_max)^2/8), w_max the widest cell (at the maximizer
      T' = 0, and a node lies within w_max/2 of it); at 16 nodes a degree
      (n w_max)^2/8 is 0.019 on the whole circle and 0.029 on the half;
  Bernstein's inequality max |T^(k)| <= n^k M;
  the cubic Hermite interpolant p_k of T^(k) from its values and slopes
      at the cell ends, which misses T^(k) by at most w^4 n^(k+4) M/384
      and lies in the hull of its Bezier control points f_0, f_0 +
      w f_0'/3, f_1 - w f_1'/3, f_1;
  the slope p_0', which misses T' by at most sqrt(3)/216 w^3 n^4 M (G.
      Birkhoff and A. Priver, Hermite interpolation errors for
      derivatives, J. Math. Phys. 46, 1967) and lies in the hull of its
      quadratic Bezier control points f_0', mid = 3 (f_1 - f_0)/w - f_0' -
      f_1', f_1';
  the curvature p_0'', linear on the cell, which misses T'' by at most
      w^2 n^4 M/12 (Birkhoff and Priver) and is 2/w times the rises
      mid - f_0' and f_1' - mid of those control points at the cell ends.

A cell holds no zero when the control points of p_0 clear
w^4 n^4 M/384 plus rounding with one sign.  On the base grid it holds
exactly its change of sign bit when those of p_0' clear
sqrt(3)/216 w^3 n^4 M plus rounding, so that T is monotone (the
clearances taken at the larger of the layout's two widths, the middle
control point at each cell's own); a node value within rounding of 0
between two monotone cells may move a zero to the neighbouring cell but
not change the total.  A cell that passes neither test, mostly one that
holds a critical point of T next to a zero, is convex or concave where
both rises clear w^3 n^4 M/24 plus rounding with one sign
(_Certificate.bend_clearance, at the larger width), and with both end
values beyond delta_0 the grid settles it too.  One rule, _settle,
decides every monotone, convex or concave cell with certain end signs:
a sign change is one zero, ends on the side that T bends away from mean
none, and otherwise (a cup) the value and tangent of T at the secant
estimate y of the critical point decide between none and two.  Wherever
a cup is found it is decided on T itself: T(y) and T'(y) come from the
trial's one order-1 pointwise jet (evaluate_jet), with the pointwise
rounding delta_0 and delta_1 as their errors.  The grid pass,
_grid_cells, runs the hull, monotone and curvature tests on the open
cells of one weight at a time (_Layout.parts) and hands _settle the
convex and concave masks and that jet, which only a cup reads.  This
leaves a few cells per trial beside close zero pairs whose dip or bend
the grid's error hides.  The local stage takes those of the same weight
from the grid pass and splits them, at most max_doublings times, with
T', T'' and the third derivative summed pointwise through the two-level
power table of trigpoly.evaluate_jet (W's own sum on W), and T too
except at the grid nodes, which keep their grid values so that each node
has one sign.  A sub-cell is certified only with both end values beyond
rounding: as zero-free by the test above, or by _settle, which the local
stage hands the monotone mask where the control points of p_1 clear
w^4 n^5 M/384, the convex and concave masks where those of p_2 clear
w^4 n^6 M/384, and the same jet.  A trial leaves few cells to the
curvature test (a median of 2 for i.i.d. trig at n = 199, 9 for W at
n = 400, 253 at n = 12000) and fewer cups (0, 2 and 60), so _settle
takes its masks and sign changes as numpy operations on all its cells
and decides each cup in Python floats, whose + - * /, min, max and
comparisons round as numpy's do, with one jet call for all the cups of
a call: a cup costs no numpy call of its own, and a large call no loop
over its cells.  The rounding bounds are

  delta_k = 8 u log2(N) sqrt(N) ||j^k c_j||_2 + 16 u n^(k+1) sum_j |c_j|
      for grid values (the transform, normwise, plus the float nodes;
      the whole circle's N bounds the half circle's N/2-node transform
      too);
  delta_k = 10 u (n+1) sum_j j^k (|a_j| + |b_j|)
      for pointwise values (evaluate_jet), and at least the grid bound,

with u the unit roundoff; each constant is several times the textbook
one.  The pointwise bound covers the power table, by the rules for
products of rounded factors and for inner products (N. J. Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 3; a complex
product adds sqrt(2) gamma_2).  Write j = B p + q with B = ceil(sqrt(n+1))
and P = ceil((n+1)/B).  The arguments q x and B p x are rounded once, and
cos and sin are good to an ulp, so the table phases lie within
u (q |x| + 2 sqrt 2) and u (B p |x| + 2 sqrt 2) of e^{iqx} and e^{iBpx}:
together u (j |x| + 4 sqrt 2).  The rows q^i e^{iqx}, the product with
e^{iBpx} and the exact weights i^k binom(k, i) (B p)^(k-i) add a rounding
each, and the two complex inner products, of lengths B and at most 4P,
add sqrt(2) (B + 4P + 3) u.  The magnitudes binom(k, i) (B p)^(k-i) q^i
sum to j^k with no cancellation, so every error is relative to
sum_j j^k |c_j|, and T^(k) is off by at most
u sum_j j^k |c_j| (j |x| + sqrt(2) (B + 4P) + 15).  Every point the grid
route evaluates lies in [-2 pi g/N, 2 pi (1 + g/N)], so |x| < 6.3, and
B + 4P <= 5 sqrt(n+1) + 5; the sum is then below the pointwise delta_k
for n >= 10, and below the grid bound (N >= 256) for n <= 9.

The count is stable (certified) when every cell is.  A cell left
undecided counts its change of sign bit and makes the report unstable;
a double zero, such as that of 1 + cos x at pi, is never certified.
Roots are refined inside the certified brackets by safeguarded Newton
on T and T' (evaluate_jet), starting from the end values that the
certificate already read: the cell of a single zero, or the two halves
of a two-zero cell split where T has the sign opposite to its ends; a
grid node whose value is within rounding of 0 is itself the root.  On
the half circle a root x of a cell that counts twice brings its mirror
image 2 pi - x; the cells about 0 and pi find their symmetric pairs
themselves.

Lattice numerator (periodic, r != 0)
------------------------------------
A periodic sample with r != 0 (ell <= n, m = 1 included, trig and
cosine alike) is the sum of ell grouped directions
phi_{M_q}(x) Re c_q e^{i nu_q x} (trigpoly), and phi_M spikes to about
m at the lattice 2 pi k/ell.  Those spikes set M >= max |T| above, about
m times T's typical size, so T would need twice the nodes a degree, its
clearances are wide where T is small and its jet costs O(n) a point.
Multiplying by s = 2 sin(ell x/2) removes every division of phi_M:

    W(x) = s(x) T(x) = Re sum_q c_q 2 sin(M_q ell x/2) e^{i nu_q x},

a sum of 2 ell sinusoids Re d_p e^{i f_p x} of the frequencies q - ell/2
and q + (M_q - 1/2) ell, d_p = +-i c_q (trigpoly._NumeratorTerms).
Its degree is n + ell/2, half an integer when ell is odd, and then
W(x + 2 pi) = -W(x).  Its sum_p |d_p| = 2 sum_q |c_q| is O(ell), and so
is its bound M_W: W has no spike.  The zeros of W on the circle are
those of T and the ell lattice points, which are simple zeros of W
wherever T does not vanish there and never lie on a node (they are
rational multiples of 2 pi, the nodes are not).  So
count(T) = count(W) - ell exactly; a zero of T beside a lattice point is
a close pair of W, which leaves its cell undecided, never miscounted.
Where that leaves the report unstable, T itself is counted, a second
call on T's record of the same sample, and replaces it if stable: 7 of
3120 trials at ell = 23..300 needed it (ell >= 128, n >= 4000), each
for a zero of T within about 1e-8 of a lattice point.

Such a sample is counted from W on the whole circle by the certificate
above, with W's degree n + ell/2 in place of n and W's 2 ell terms in
place of T's (_certificate takes the frequencies and coefficients of
either function), through the same _screen, _grid_cells, _settle,
_local_stage and _refine_roots.  What differs:

  the grid: N = ell K, the smallest with K 5-smooth at or above
      max(256, grid_per_degree (n + ell/2)) (_grid_size);
  the grid values: W and W' from W's folded table
      (trigpoly.numerator_on_grid), one matmul, O(ell N), from a table
      of 32 N bytes;
  the wrap cell: for odd ell it ends at -W(x_0), -W'(x_0) (_Layout.flip);
  the coefficients: the ell drawn pairs alone, normalized by the exponent
      of PolySample.peak and taken at exponent 0 (_NumeratorTerms), the
      bits of PolySample.normalized[0][:ell], with no copy of the n + 1;
      W's grid, certificate and jet read them, and T's record is built
      only for roots refined on T and for the recount above;
  the pointwise jet: W's own sum of 2 ell terms (trigpoly.numerator_jet),
      O(ell) a point, with no window beside the lattice;
  the roots: a single-zero bracket that holds a lattice point 2 pi k/ell
      holds that zero of W alone and is dropped before Newton.  The rest
      are refined on T itself (evaluate_jet) from W's own roots: beside
      the lattice W's rounding over |W'| = |s T'| moves a zero 1/|s|
      times more than T's rounding over |T'| (at n = 1855 a zero 1.1e-6
      from the lattice moved by 1.6e-12 when refined on W).  A cosine
      sample's T is even: its roots in [0, pi] bring their mirror images.

The rounding bounds are those above with W's terms, the transform term
raised to the table's own tally: for grid values
delta_k = max(8 u log2(N) sqrt(N) ||f^k d||_2,
2 u (13 + 2.9 ell) sum_p |f_p|^k |d_p|) + 16 u n^(k+1) sum_p |d_p|, and
for pointwise values 10 u (n+1) sum_p |f_p|^k (|Re d_p| + |Im d_p|), with
n the degree n + ell/2.  Pointwise, each argument f_p x is rounded
once, within 6.3 u n at the points the route reads; cos and sin are
good to an ulp, the weights d_p i^k f_p^k take one rounding (f_p^k is
exact), a complex product adds sqrt(2) gamma_2 and the sum of 2 ell
terms gamma_{2 ell}: W^(k) is off by at most
u sum_p |d_p| |f_p|^k (6.3 n + 2 ell + 8), within the bound since
n >= 3 ell/2.  On the grid, the table holds class q at K float points
t_k (trigpoly._table_nodes) and node sK + k reads it rotated by
(-1)^s omega^(qs), since a lattice step multiplies class q by
-omega^q.  Per unit of w_q = 2 |c_q|, class q's share of sum_p |d_p|,
with f_q its top frequency (f_q <= n, |W_q^(k)| <= f_q^k w_q), W^(k)
takes four errors.  The route's node t_k + 2 pi s/ell lies within 8.2 u
of the float node where the certificate places the value (8.14 u
measured at ell = 2..22, N up to 4.2e6, and 7.58 u on a sample of
ell = 23..300; trigpoly's TestDirectionTable): 8.2 u f_q^(k+1).  The
table's arguments M_q ell t/2 and nu_q t are rounded once, each like a
shift of t by at most 2 pi u/ell <= pi u: 6.3 u f_q^(k+1) together.  The
rotation is within 4.7 u and its product with c_q adds 2.9 u, the sines,
cosines and products of an entry a few u, and the 2 ell-term matmul
gamma_{2 ell} sqrt 2: under u (13 + 2.9 ell) f_q^k together.  The first
two, 14.5 u f_q^(k+1), fit the node term 16 u n^(k+1) per unit.  The
rest, the tally u (13 + 2.9 ell) sum_q f_q^k w_q, is within the max at
every ell, to first order in u: f_q is one of class q's two
frequencies, each of weight |d_p| = w_q/2.  The transform term, which
this route does not spend, is the larger wherever it covers the tally
alone, at every ell <= 22 since ||f^k d||_2 >= sum_p |f_p|^k |d_p|/
sqrt(2 ell) and N >= 256 (512/sqrt(2 ell) >= 13 + 2.9 ell).  On W's
default grids (3 samples a row, n <= 12000) the tally reached 0.56 of
it at ell = 22 and 0.85 at 40, and 1.18, 1.73 and 4.42 times it at
ell = 60, 100 and 300, where delta_grid, whose node term is larger,
grew by 18 % at most.  Measured at n <= 250, ell = 2..7, both
kinds: W's rows lie within 0.12 delta_grid of 2 sin(ell x/2) T summed in
long double at the float nodes, within 0.07 of the node term at the
route's own nodes, and the jet, orders 0 to 3, within 0.09 delta_point,
beside the lattice too; at ell = 15, 18, 22, 40 and 100 the rows lie
within 0.09 delta_grid and the jet within 0.05 delta_point.

At trig ell = 3 the local stage ran in 5 and 13 of 300 trials at n = 400
and 1600 (154 and 268 counting T), and none of 1200 at n = 12000 was
unstable (27 counting T).  On 5268 trials (ell = 2..22, n <= 30000),
and on 3120 at ell = 23..300 (n <= 12000), the route kept every count
that T certified and certified those T left unstable.

Phase route (periodic, r = 0, m >= 2)
-------------------------------------
Periodic samples with r = 0 and m >= 2 factor exactly as T_n = phi_m * T^*
(PeriodDecomposition.factors).  They are not scanned raw: the
deterministic zeros of phi_m and the random zeros of T^* form two
interleaved combs with no repulsion between the families, so
near-coincident pairs arise that no affordable grid resolves.  The
n+1-ell deterministic zeros are known in closed form: the count adds
their number, and deterministic_zero_set lists them only when roots are
requested.  No grid is needed for T^* either.  With c_k = a_k - i b_k,
P(z) = sum_{k<ell} c_k z^k and f0 = (m-1) ell/2 (PolySample.split),

    T^*(x) = Re(e^{i f0 x} P(e^{ix})) = |P(e^{ix})| cos theta(x),

so the zeros of T^* are the solutions of theta = pi/2 (mod pi).  The
phase theta is continuous and is written from the roots of P (the
eigenvalues of its companion matrix, as np.roots finds them) without
unwrapping (CarrierPhase); it is monotone between the unit-circle roots
of one polynomial of degree 2 ell - 2 (z^(ell-1) times the numerator of
theta'), so the count is the number of levels pi/2 + k pi crossed on
each monotone piece: the argument principle (P. Henrici, Applied and
Computational Complex Analysis, vol. 1, 1974) made piecewise.  With no
breakpoint the count is 2(f0 + w), w the number of roots of P inside
the unit disk.  The count is exact unless a root of P lies within
delta = PHASE_MARGIN = 1e-9 of the unit circle, or a phase value at a
piece end lies within delta * max(1, |theta|) of a level (a relative
margin, since theta grows like n); only then is stable=False.  Roots
are refined by the same safeguarded Newton, on theta minus its level
across the monotone piece that crosses it.  P is read from the first ell
coefficients of the sample, normalized as PolySample.normalized would
normalize them (the exponent of PolySample.peak), not from a copy of
T^*, so count_zeros first checks that the sample repeats its
coefficients with period ell.

Monotone-phase proof (r = 0, counting alone)
--------------------------------------------
Where no roots are wanted, _monotone_winding first tries to prove that
theta is monotone on the whole circle, and then the count needs no
eigenvalue problem.  With p(x) = P(e^{ix}), theta' = f0 + Im(p'/p), so
theta' > 0 wherever |p'| < f0 |p|.  p and p'/i = sum_k k c_k e^{ikx} are
read at the K = 512 nodes x_j = 2 pi j/K by one product of the ell
coefficients c (the bits carrier_phase reads) with a cached
(2K + 2, ell) table of rounded K-th roots of unity (_proof_table).  With
S_s = sum_k k^s |c_k|, |p'| <= S1 and |p''| <= S2 on the circle, so on
the cell [x_j, x_{j+1}] of width h = 2 pi/K

    |p| >= lo = (|p_j| + |p_{j+1}| - h S1)/2 - delta_0,
    |p'| <= hi = (|p'_j| + |p'_{j+1}| + h S2)/2 + delta_1,

the meeting points of the slopes -S1 and S1 from the computed end values
|p_j| (within delta_0 of the truth), and of S2 from |p'_j| (within
delta_1).  The proof asks F (lo - K delta_0) > hi on every cell, with
F = min(f0, 3/h).  Then theta' >= f0 - hi/lo > 0 and p != 0 on the
circle, so theta is increasing and T^* = |p| cos theta vanishes exactly
where theta crosses a level pi/2 + k pi, once each.  Over a turn theta
grows by 2 pi (f0 + w), w the winding number of p about 0 (the roots
of P inside the unit disk), so the count is 2 (f0 + w) =
(m - 1) ell + 2 w, every zero simple.  Also |p'/p| < 3/h, so the
argument of p moves less than 3 < pi across a cell, and
w = round(sum_j angle(p_{j+1} conj(p_j))/2 pi): |p| > K delta_0 keeps
each computed angle within pi/(2K) of the true move, the K of them
within pi/2 of 2 pi w.  A P whose sum_k k^2 |c_k|^2 reaches
F^2 sum_k |c_k|^2 is not tried (by Parseval, |p'| >= F |p| somewhere),
nor one of more than K coefficients, which K nodes do not resolve, nor
one with 2 F sqrt(sum_k |c_k|^2) at most the test's scalar: at ell <= K
the mean of |p_j| over the K nodes is at most sqrt(sum_k |c_k|^2)
(discrete Parseval), so no cell could pass, and no table is built.

The rounding: the table entry of (j, k) is e^{i phi} at the float
phi = fl(fl(2 pi)/K t), t = (j k) mod K (division by K = 2^9 is exact),
within 4 pi u of 2 pi t/K, and cos and sin are good to an ulp, so the
entry is within 13 u + 2 sqrt(2) u < 16 u of the root of unity; times
k it takes one more rounding, within 18 k u.  The complex inner product
of length ell adds sqrt(2) gamma_(ell+2) (Higham, ch. 3) and the
modulus 2 u, relative to sum_k k^s |c_k|: |p_j| and |p'_j| are within
(1.5 ell + 25) u S0 and (1.5 ell + 25) u S1 of the truth.  delta_0 =
8 (ell + 8) u S0 and delta_1 = 8 (ell + 8) u S1 are more than twice
that, and the rest, at least (6.5 ell + 39) u S_s, covers the rounding
of the sums S_s, ell u S_s, in h S1/2 <= 0.0062 ell S0 and
h S2/2 <= 0.0062 ell S1 (at most 3.2 ell u S0 and S1 at ell <= K), and
that of the test's own few operations, relative to F S0 and S1.  The margin
K delta_0 is below 1e-9 S0 at ell <= K, which never decides a sample.

On 200 fixed seeds each the proof decides 87.5 % of the trig ell = 5,
n = 499 samples and 97.5 % of the cosine ell = 3, n = 1199 ones (the
r = 0 rows of the mc-periodic benchmark).  It needs f0 large beside
|p'/p| near P's roots closest to the circle, which grows faster than
ell, and F is capped at 3/h: on a sweep of 45 samples a row, trig and
cosine, it decided at most 2 of 45 at ell >= 20 for every m, and at
ell >= 2 m (m = 2..6) at most 9 % of the trig samples and 29 % of the
cosine ones, where a failed proof adds 5-10 % to a trial.  count_zeros tries it only where
ell < min(20, 2 m) (_PROOF_ELL); elsewhere, and where it decides
nothing, the phase route above runs unchanged.  The table's rows
(_wave_rows) and the turns of p (_turns) are shared with the carrier
proof below.

Carrier proof (periodic, r != 0, counting alone)
------------------------------------------------
W's 2 ell terms (_NumeratorTerms) split into a carrier and a slow part.
With F = (m - 1/2) ell + shift, shift = r + (ell - 1)//2,

    W(x) = Im(e^{iFx} P(x)) - Im Q(x),
    P(x) = sum_q c_q e^{i e_q x},  e_q = q + ell [q < r] - shift,
    Q(x) = sum_q c_q e^{i s_q x},  s_q = q - ell/2,

from the fast terms (frequencies F + e_q) and the slow ones (s_q).
shift centres the e_q, so that P's sums S_k = sum_q |e_q|^k |c_q| are
small, and keeps them integers, so that P(x + 2 pi) = P(x), while
Q(x + 2 pi) = (-1)^ell Q(x); S_k' are Q's sums.  With psi = F x + arg P
and u = arcsin(Im Q/|P|), W = |P| (sin psi - sin u): a carrier of
frequency about n under the slow envelopes |P| and Im Q.  _carrier_count
reads P and Q at K + 1 = 513 proof nodes by one product of the ell
coefficients with a cached table (_carrier_table).  The nodes are W's
own grid nodes 2 pi (i_j + g)/N, i_j = j N // K, so they miss the
lattice 2 pi k/ell, where W vanishes, and a window ends on grid nodes.
Each proof cell [x_j, x_(j+1)], of width at most w = ceil(N/K) 2 pi/N,
is bounded by chords: a chord misses its function by at most w^2/8
times the bound on the second derivative, so on the cell

    |P| >= LP = dist(0, segment P_j P_(j+1)) - w^2 S2/8 - delta_0,
    |P| <= HP = max(|P_j|, |P_(j+1)|) + w^2 S2/8 + delta_0,

LQ and HQ alike for |Im Q|, and |P'| <= S1, |Q'| <= S1' everywhere.  (The
slope bounds of the monotone-phase proof, |P| >= (|P_j| + |P_(j+1)| -
w S1)/2 and alike, leave 2.4-3.2 % of the circle in windows on trig
ell = 3 at n = 400 and 1600, cosine ell = 3 at n = 400 and trig ell = 4
at n = 1001, 200 seeds each; the chord bounds leave 0.9-1.2 %.)  A cell
is

  zero-free where Im Q keeps one sign and LQ > HP: |W| >= |Im Q| - |P| > 0;
  an arc where LP > max(16 K delta_0, w S1/3, 4 S1/F) and
      LP^2 - HQ^2 > (4 (S1 + S1')/(3 F))^2.  Then F - S1/|P| >= 3 F/4 and
      |u'| <= (|(Im Q)'| + |v| |P'|)/sqrt(|P|^2 - (Im Q)^2) <
      (S1 + S1')/sqrt(LP^2 - HQ^2), v = Im Q/|P|, so psi' = F + Im(P'/P) >
      |u'|: psi - u and psi + u increase, and the zeros are where psi - u
      crosses 2 pi Z and psi + u crosses pi + 2 pi Z, once each and simple
      (|u| < pi/2 keeps the two sets apart); arg P moves less than 3
      across the cell;
  a window otherwise.

A run of arcs is counted from psi -+ u at its end nodes (_carrier_arcs):
floor((psi - u)/2 pi) + floor((psi + u - pi)/2 pi) at the end less that
at the start, psi at the end being psi at the start plus F times the
run's width plus the sum of the turns of P, rounded to whole turns beside
the difference of arg P at the ends.  A whole circle of arc counts
2 (F + w), w the winding number of P.  A window on which Im Q keeps one
sign s, with LQ <= |Im Q|, LP <= |P| <= HP and LQ > HP/2, is decided
from the carrier's peaks (_carrier_peaks): s W < 0 wherever
s sin psi < LQ/HP, so W vanishes only in the peaks
|psi - (s pi/2 + 2 pi k)| <= theta = arccos(LQ/HP), where
s W'' <= -kappa = -(F^2 LP cos theta - 2 F S1 - S2 - S2') < 0.  A peak
cut to the window holds one zero where one end has s W > 0, none where
both have, and else none or two: two where s W > 0 at a point y in it,
none where s W(y) + W'(y)^2/(2 kappa) < 0, the top of a concave function
with that value and slope.  y aims at the peak's centre along the
tangent of psi at the window's start, and one product of P's and Q's
phases reads all the points y.  A window that this leaves undecided is
counted on W's grid nodes inside it (_carrier_windows): W and W' from
W's folded table at those nodes (trigpoly.numerator_at_nodes), under the
grid route's certificate with max |W| bounded from the proof's nodes,
through _screen, _grid_cells, _settle and _local_stage, never the local
stage alone.  A window that passes node K is cut there into two runs of
grid nodes, the first ending at node N, which reads node 0 times
(-1)^ell as the grid route's wrap cell does.  An end node without a
certain sign, an arc end within its rounding of a level, or a cell that
the local stage leaves undecided gives up, and W's grid route counts
the sample unchanged.

The rounding: a table entry e^{i f x_j} takes one rounded argument,
within u |f x| <= 6.3 u |f| (12.6 u |f| on a run moved by 2 pi), and
cos and sin of an ulp each; a slope entry one more rounding by f; the
complex inner product of length ell adds sqrt(2) gamma_(ell+2) (Higham,
ch. 3).  So P_j and P'_j/i lie within delta_0 = 8 u ((ell + 8) S0 + 2 S1)
and delta_1 = 8 u ((ell + 8) S1 + 2 S2) of the truth, more than twice
the tally, and Q within delta_0', delta_1' from its own sums.  The cell
tests' own few operations round by a few u, relative to S0 or S0', and
every bound is widened by _CARRIER_SLACK = 1e-12 of S0 (or S0'), or
relatively, far beyond that.  At an arc's end psi is within
2 (u (4 F |x| + 4 |psi| + 8) + 1.6 delta_0/|P|) of the truth and u
within 4 delta_v/sqrt(1 - v^2), delta_v = 1.1 (delta_0' + |v| delta_0)/|P|
+ 2 u, and the end must clear a level by their sum.  A peak's s W and
s W' at a point are within 2 (delta_0 + delta_0' + 16 u (F + 1)(S0 + S0'))
and 2 (F delta_0 + delta_1 + delta_1' + 16 u (F + 1)(F S0 + S1 + S1')),
the carrier's argument F x rounded once, and the peaks are widened by
_PEAK_MARGIN = 1e-9 of psi.

count_zeros tries the proof for counting alone, before W's grid route,
where ell <= 4, W's grid holds at least 4 ell grid cells a proof cell
(N >= 2048 ell) and F S0 > 16 (S1 + S1') (_CARRIER_ELL, _CARRIER_STRIDE,
_CARRIER_GATE), before any table is built.  |e_q| and |s_q| are at most
ell/2, so at the default 16 nodes a degree, where N >= 2048 ell gives
n >= 63 ell and F >= 61 ell, the last test bites on finer grids alone.
Beyond the gate the proof was measured to cost more than the grid route
(trig ell = 4 at n = 400, ell = 5 at n = 503, ell = 10 at n = 2001); on
a row it gates out it costs 0.15-0.5 us a trial.  On 200 fixed seeds
each it decides every trig ell = 3 sample at n = 400 and n = 1600 (the
r != 0 rows of the mc-periodic benchmark), every cosine ell = 3 one at
n = 400, trig ell = 2 at n = 2000 and ell = 4 at n = 1001; 0-3.5 % of
them leave a window to the grid.  A decided report has the grid size N
of W's grid route and doublings_used the deepest local split in a window
(0 where none reached the local stage).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import models
from .models import PolySample
from .trigpoly import (_NumeratorTerms, _TableCoefficients, evaluate_jet, evaluate_on_grid,
                       frequency_powers, numerator_at_nodes, numerator_frequencies, numerator_jet,
                       numerator_on_grid)

TWO_PI = 2.0 * np.pi

# phase route: a root of P within PHASE_MARGIN of the unit circle, or a
# phase value within PHASE_MARGIN * max(1, |theta|) of a level, marks the
# count unstable; roots of the breakpoint polynomial within
# BREAKPOINT_CUT of the unit circle split the phase into pieces (an
# extra breakpoint never changes the count)
PHASE_MARGIN = 1e-9
BREAKPOINT_CUT = 1e-6

# phase route: the monotone-phase proof reads P and its slope at this many
# equispaced nodes of the circle (_monotone_winding)
_PROOF_NODES = 512
# ... and is tried only where ell < min(_PROOF_ELL, 2 m): beyond, it decides
# almost no sample and costs 5-10 % of a phase-route trial
_PROOF_ELL = 20

# carrier proof (periodic, r != 0, counting alone; _carrier_count) on
# _CARRIER_NODES proof nodes: tried where ell <= _CARRIER_ELL, a proof cell
# holds at least _CARRIER_STRIDE ell cells of W's grid and
# F S0 > _CARRIER_GATE (S1 + S1'), where it was measured to pay; an arc
# needs |P| > _CARRIER_FLOOR K delta_0, and every bound it computes is
# widened by the relative _CARRIER_SLACK, far beyond the rounding of its
# own few operations
_CARRIER_NODES = 512
_CARRIER_ELL = 4
_CARRIER_STRIDE = 4
_CARRIER_GATE = 16.0
_CARRIER_FLOOR = 16.0
_CARRIER_SLACK = 1e-12
# ... and widens a peak of its windows by _PEAK_MARGIN radians of psi
_PEAK_MARGIN = 1e-9
# ... and the kinds of its cells
_ZERO_FREE, _WINDOW, _ARC = -1, 0, 1

# grid route: nodes sit at 2 pi (i + GRID_OFFSET)/N.  Structured samples
# (periodic cosine with r != 0, rigged tones) have deterministic zeros at
# rational multiples of 2 pi; a half-cell offset puts nodes and bisection
# midpoints (2 pi k/N) on such points, where no sign is certain, and the
# golden section keeps every node and midpoint off them.  The half circle
# of an even T needs a node set symmetric under x -> 2 pi - x: the even
# nodes and their mirror images, 2 pi (2k -+ GRID_OFFSET)/N, stay
# irrational, but their cells are centred on the rational 2 pi k/N, so
# the local stage splits those at the golden fraction GRID_OFFSET of the
# width (the symmetric uniform grid, offset 1/2, would put its nodes on
# 2 pi (k + 1/2)/N and its midpoints on 2 pi k/N)
GRID_OFFSET = (np.sqrt(5.0) - 1.0) / 2.0

# grid route: nodes a degree of the function counted, W or T
GRID_PER_DEGREE = 16

# grid route: local splits of a cell at most, finer than 4 at 32 a degree (count_zeros)
MAX_DOUBLINGS = 7

# grid route: the unit roundoff and the constants of the rounding bounds
# delta_k (see _certificate), each several times the textbook constant;
# _WIDTH_SLACK covers the rounding of cell widths in the w^4 and w^3 terms
_U = 0.5 * np.finfo(float).eps
_FFT_ROUNDING = 8.0
_SUM_ROUNDING = 10.0
_WIDTH_SLACK = 1e-9

# the slope of the cubic Hermite interpolant of f on a cell of width w
# misses f' by at most _SLOPE_HERMITE w^3 max |f^(4)| (Birkhoff and Priver)
_SLOPE_HERMITE = np.sqrt(3.0) / 216.0

# root refinement: Newton steps and bisections per root at most; bisection
# alone takes about 55 from a bracket of 2 pi to the spacing of doubles
_REFINE_MAX_ITER = 100


@dataclass(frozen=True)
class ZeroCountReport:
    """Outcome of one counting run.

    count           zeros attributed to (0, 2 pi); the certified count
                    when stable
    grid_size       grid route: nodes N of the base grid on the whole
                    circle, the only grid; a cosine sample's transform
                    reads N/2 of them, and their mirror images are the
                    rest; carrier proof: the N of W's grid route, a few
                    of whose nodes its windows read; phase route: 0
    doublings_used  grid route: the deepest local split of an
                    undecided cell (0 when no cell needed one): a
                    halving on the whole circle, a golden split on the
                    half circle, which shrinks the widest piece by
                    g = 0.618 only; carrier proof: the same in its
                    windows, 0 where none reached the local stage;
                    phase route: 0
    stable          grid route: every cell certified (no zero, exactly
                    its sign change, or 0 or 2 in a convex or concave
                    sub-cell), so the count is proved up to the stated
                    rounding bounds; phase route: proved, with no
                    margin, where the monotone-phase proof decides the
                    count (counting alone), else no root of P and no
                    phase value at a piece end within PHASE_MARGIN of
                    the unit circle or of a level, so the count is exact
    roots           refined abscissae, only when requested
    pieces          phase route: monotone pieces of the carrier phase
                    (>= 1), 1 where the monotone-phase proof decides;
                    grid route: 0
    """

    count: int
    grid_size: int
    doublings_used: int
    stable: bool
    roots: Optional[np.ndarray] = None
    pieces: int = 0


def deterministic_zero_set(m: int, ell: int) -> np.ndarray:
    """Zeros of phi_m = sin(m ell x/2)/sin(ell x/2) in (0, 2 pi).

    These are 2 pi j/(m ell) for j = 1..m ell - 1 with m not dividing j
    (multiples of m are the lattice points where phi_m = +-m), giving
    ell(m-1) points.  Empty for m = 1.
    """
    if m < 1 or ell < 1:
        raise ValueError(f"need m >= 1 and ell >= 1, got m={m}, ell={ell}")
    j = np.arange(1, m * ell)
    j = j[(j % m) != 0]
    return TWO_PI * j / (m * ell)


@functools.lru_cache(maxsize=256)
def smooth_size(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) that is >= n."""
    n = max(int(n), 1)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _polynomial_roots(p: np.ndarray) -> np.ndarray:
    """np.roots(p), p in decreasing powers: the eigenvalues of the companion
    matrix that np.roots builds, computed here without its trimming and
    wrapping when neither end coefficient is 0, so the roots are the same
    to the last bit; otherwise np.roots itself."""
    if p.size < 2 or p[0] == 0 or p[-1] == 0:
        return np.roots(p)
    companion = np.diag(np.ones(p.size - 2, p.dtype), -1)
    companion[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def _refine_roots(jet: Callable, lo, hi, g_lo, g_hi, tol: float, start=None) -> np.ndarray:
    """Roots of g in the brackets (lo_i, hi_i) by safeguarded Newton
    (rtsafe), all brackets at once.

    g_lo and g_hi are the values of g at the bracket ends, which every
    caller already holds; jet(x, idx) returns (g, g') at the points x for
    the brackets idx.  Each root starts at start, or else at the secant
    of g across its bracket, and every iterate shrinks the bracket; a
    step that would leave it, or that is not under half the previous
    one, is replaced by bisection, so a root never leaves its bracket.
    A root is final once its step is within tol, and only unfinished
    roots are iterated further.  A zero-width bracket is returned as is.
    """
    out = np.asarray(lo, dtype=float).copy()
    idx = np.flatnonzero(np.asarray(hi) > out)
    lo, hi = out[idx], np.asarray(hi, dtype=float)[idx]
    g_lo, g_hi = np.asarray(g_lo)[idx], np.asarray(g_hi)[idx]
    rising = g_hi > g_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + g_lo / (g_lo - g_hi) * (hi - lo) if start is None else np.asarray(start)[idx]
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    last = hi - lo
    for _ in range(_REFINE_MAX_ITER):
        if not idx.size:
            break
        g, dg = jet(x, idx)
        past = (g > 0.0) == rising
        hi = np.where(past | (g == 0.0), x, hi)
        lo = np.where(past & (g != 0.0), lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / dg
        newton = (step >= lo) & (step <= hi) & (np.abs(step - x) <= 0.5 * last)
        step = np.where(newton, step, 0.5 * (lo + hi))
        last = np.abs(step - x)
        x = step
        done = last <= tol
        out[idx[done]] = x[done]
        keep = ~done
        idx, x, lo, hi, last, rising = (a[keep] for a in (idx, x, lo, hi, last, rising))
    out[idx] = x
    return out


def _hull_sides(v0, d0, v1, d1, w3, clearance):
    """(above, below): where the four Bezier control points v0, v0 + w d0/3,
    v1 - w d1/3, v1 of the cubic Hermite interpolant of a function with
    values v and slopes d at the ends of a cell of width w = 3 w3 all
    exceed clearance, and where they all lie below -clearance.  Stacked
    rows are tested at once."""
    b1 = w3 * d0
    b1 += v0
    b2 = w3 * d1
    np.subtract(v1, b2, out=b2)
    lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
    for b in (b1, b2):
        np.minimum(lo, b, out=lo)
        np.maximum(hi, b, out=hi)
    return lo > clearance, hi < -clearance


@dataclass(frozen=True)
class _Layout:
    """Where the cells of the grid route lie, as data.

    The transform reads T and T' at the columns 2 pi (i + offset)/columns,
    i < columns.  The cells run along a sequence of nodes: node k lies at
    h (k + offsets[k mod p]), h = 2 pi/size and p = len(offsets).  On the
    whole circle the sequence is the columns themselves, and a last cell
    wraps from the last node to node 0.  On the half circle (mirror) node
    2j + 1 is column j and node 2j the mirror image of column -j mod
    columns, for j <= columns/2, and no cell wraps.  Cell k spans the
    nodes k and k + 1 and has width h widths[k mod p]; how many cells of
    the circle it stands for, its weight, is given by parts alone.  The
    local stage splits a cell at the fraction split of its width.  With
    flip (whole circle only) the counted function changes sign over a
    turn, as W does for odd ell, and the wrap cell ends at minus the
    values and slopes of node 0.  With nodes (the carrier proof's windows)
    node k lies at nodes[k] instead, no cell wraps, and columns is the
    number of cells.
    """

    size: int
    columns: int
    offset: float
    offsets: np.ndarray
    widths: tuple
    split: float
    mirror: bool = False
    flip: bool = False
    nodes: Optional[np.ndarray] = None

    @functools.cached_property
    def h(self) -> float:
        return TWO_PI / self.size

    @functools.cached_property
    def gap(self) -> float:
        """The widest cell, in units of h."""
        return max(self.widths)

    @functools.cached_property
    def cell_count(self) -> int:
        return self.columns + 1 if self.mirror else self.columns

    @functools.cached_property
    def width_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(w/3, 3/w) for the widths w = h widths[i]; cell k takes entry
        k mod p, p = len(widths) = 1 or 2, that is k & (p - 1)."""
        w = self.h * np.array(self.widths)
        return _read_only(w / 3.0), _read_only(3.0 / w)

    def positions(self, k: np.ndarray) -> np.ndarray:
        """The abscissae h (k + offsets[k mod p]) of the sequence nodes k;
        h (k + g) with one offset g; nodes[k] where the layout lists them."""
        if self.nodes is not None:
            return self.nodes[k]
        if self.offsets.size == 1:
            return self.h * (k + self.offsets[0])
        return self.h * (k + self.offsets[k % self.offsets.size])

    def sequence(self, grid: np.ndarray) -> np.ndarray:
        """T and T' (rows) at the sequence nodes, from their values at the
        columns: the grid itself on the whole circle, else a new array
        whose even nodes, mirror images, have T' negated."""
        if not self.mirror:
            return grid
        K = self.columns // 2
        seq = np.empty((2, self.columns + 2))
        seq[:, 1::2] = grid[:, :K + 1]
        mirrored = seq[:, ::2]
        mirrored[:, 0] = grid[:, 0]
        mirrored[:, 1:] = grid[:, :K - 1:-1]
        np.negative(mirrored[1], out=mirrored[1])
        return seq

    def parts(self, cells: np.ndarray):
        """[(the cells of one weight, as a mask or a slice, their weight)]:
        1 on the whole circle; on the half circle 2, a cell and its mirror
        image, but 1 for the cells about 0 and pi, their own mirror
        images."""
        if not self.mirror:
            return [(slice(None), 1)]
        own = (cells == 0) | (cells == self.cell_count - 1)
        return [(~own, 2), (own, 1)] if own.any() else [(slice(None), 2)]


def _screen(f: np.ndarray, margin: np.ndarray, clear0: float, layout: _Layout) -> np.ndarray:
    """The open cells of the layout's sequence of f.size nodes: all but those
    whose two end nodes both have margin > clear0 and one sign of f.  Cell k
    spans the nodes k and k + 1; on the whole circle the last wraps to node
    0, whose sign it takes negated with layout.flip."""
    S, cells = f.size, layout.cell_count
    flags = np.empty(2 * S + cells, bool)
    unsure, neg = flags[:2 * S].reshape(2, S)
    np.signbit(f, out=neg)
    np.greater(margin, clear0, out=unsure)
    np.logical_not(unsure, out=unsure)
    open_ = flags[2 * S:]
    inner = open_[:S - 1]
    np.not_equal(neg[:-1], neg[1:], out=inner)
    inner |= unsure[:-1]
    inner |= unsure[1:]
    if cells == S:  # the wrap cell
        open_[-1] = ((neg[-1] != neg[0]) ^ layout.flip) | unsure[-1] | unsure[0]
    return open_.nonzero()[0]


@functools.lru_cache(maxsize=32)
def _grid_layout(N: int, mirror: bool, flip: bool = False) -> _Layout:
    """The layout of the grid route on N nodes of the circle.

    mirror False: the N columns (i + g) h themselves, h = 2 pi/N, cells of
    one width h split at their midpoints.  mirror True (an even T, N a
    multiple of 4): the N/2 columns (2i + g) h, and for each its mirror
    image 2 pi - (2i + g) h, where T is equal and T' negated.  On
    [-g h, pi + g h] the sequence alternates mirror image and column,
    -g h, g h, (2 - g) h, (2 + g) h, ..., pi - g h, pi + g h, so the cell
    widths alternate between 2 g h and 2 (1 - g) h, and the cells about 0
    and pi are their own mirror images; every other cell stands for
    itself and its mirror image.  The cells' midpoints 2 pi k/N are
    rational, and the local stage splits them at the golden point instead.
    flip (whole circle only): the wrap cell ends at minus node 0's values.
    """
    g = GRID_OFFSET
    if not mirror:
        return _Layout(N, N, g, _read_only([g]), (1.0,), 0.5, flip=flip)
    # node 2j lies at (2j - g) h and node 2j + 1 at (2j + 1 + (g - 1)) h,
    # which rounds as (2j + g) h does: g - 1 is exact
    return _Layout(N, N // 2, g / 2.0, _read_only([-g, g - 1.0]), (2.0 * g, 2.0 * (1.0 - g)), g,
                   True)


_SCRATCH = threading.local()


def _scratch(slot: int, shape: tuple) -> np.ndarray:
    """Slot 0 (T, T') or 1 (|T|, |T'|) of this thread's scratch rows."""
    size, buffers = shape[0] * shape[1], _SCRATCH.__dict__.setdefault("rows", [np.empty(0)] * 2)
    if buffers[slot].size < size:
        buffers[slot] = np.empty(size)
    return buffers[slot][:size].reshape(shape)


def _read_only(values) -> np.ndarray:
    table = np.asarray(values)
    table.flags.writeable = False
    return table


def _grid_size(degree, grid_per_degree: int, step: int) -> int:
    """The grid size N of a function of this degree: the smallest multiple
    of step with a 5-smooth cofactor at or above max(256, grid_per_degree
    * degree).  step is 1 for T, 4 on its half circle (N/2 columns and
    their mirror images) and ell for W of degree n + ell/2 (its table)."""
    least = max(256, int(np.ceil(grid_per_degree * degree)))
    return step * smooth_size(-(-least // step))


@dataclass(frozen=True)
class _Certificate:
    """The bounds of the cell tests for one function of degree n, T or W.

    n is the degree (n + ell/2 for W, which may be half an integer), bound
    is M >= max |T|; delta_grid[k] and delta_point[k] bound the rounding
    error of T^(k) read from the grid and from the pointwise jet.
    """

    n: float
    bound: float
    delta_grid: np.ndarray
    delta_point: np.ndarray

    def _interp(self, k: int) -> float:
        """n^(k+4) M/384, widened by _WIDTH_SLACK."""
        return self.n ** (k + 4) * self.bound / 384.0 * (1.0 + _WIDTH_SLACK)

    @functools.cached_property
    def _interp_rows(self) -> np.ndarray:
        """_interp(k) for k = 0, 1, 2 (rows)."""
        return np.array([[self._interp(k)] for k in range(3)])

    def clearances(self, w, delta) -> np.ndarray:
        """What the control points of the Hermite cubics of T, T' and T''
        (rows) on cells of width w must clear: the interpolation error
        w^4 n^(k+4) M/384 of T^(k) (Bernstein) plus the rounding of the end
        values and slopes."""
        return w ** 4 * self._interp_rows + delta[:3, None] + (w / 3.0) * delta[1:4, None]

    def grid_clearance(self, w: float) -> float:
        """Row T of clearances(w, delta_grid) for one width w, as a scalar:
        the same operations in the same order, so the same bits."""
        delta = self.delta_grid
        return w ** 4 * self._interp(0) + delta[0] + (w / 3.0) * delta[1]

    def slope_clearance(self, w: float, delta) -> tuple[float, float]:
        """What the control points of p' must clear, p the cubic Hermite
        interpolant of T on a cell of width w: (the two end points, the
        middle one).  Both take the interpolation error
        sqrt(3)/216 w^3 n^4 M; the ends add the rounding delta_1 of a
        slope, and the middle 3 (f_1 - f_0)/w - f_0' - f_1' adds
        6 delta_0/w + 2 delta_1 and the rounding of its own five
        operations, relative to |f| <= M + delta_0 and |f'| <= n M + delta_1."""
        interp = w ** 3 * (self.n ** 4 * self.bound * _SLOPE_HERMITE * (1.0 + _WIDTH_SLACK))
        own = _SUM_ROUNDING * _U * (6.0 * (self.bound + delta[0]) / w
                                    + 2.0 * (self.n * self.bound + delta[1]))
        return interp + delta[1], interp + 6.0 * delta[0] / w + 2.0 * delta[1] + own

    def bend_clearance(self, w: float, delta) -> float:
        """What the rises mid - f_0' and f_1' - mid of the control points
        of p' must clear, p the cubic Hermite interpolant of T on a cell of
        width w and mid the middle point of slope_clearance.  At the cell
        ends p'' is 2/w times the rises and misses T'' by at most
        w^2 n^4 M/12 (Birkhoff and Priver), so the rises take
        w^3 n^4 M/24, plus the rounding 6 delta_0/w + 3 delta_1 of the end
        values and slopes and that of their own six operations, relative
        to |f| <= M + delta_0 and |f'| <= n M + delta_1."""
        interp = w ** 3 * (self.n ** 4 * self.bound / 24.0 * (1.0 + _WIDTH_SLACK))
        own = _SUM_ROUNDING * _U * (6.0 * (self.bound + delta[0]) / w
                                    + 3.0 * (self.n * self.bound + delta[1]))
        return interp + 6.0 * delta[0] / w + 3.0 * delta[1] + own


@functools.lru_cache(maxsize=32)
def _certificate_factors(n, N: int, gap: float):
    """What _certificate's bounds take from the degree, the grid size and
    the widest node gap alone: (the transform's 8 u log2(N) sqrt(N), the
    nodes' 16 u n^(k+1), the pointwise sums' 10 u (n+1),
    (n gap 2 pi/N)^2)."""
    node_factors = 16.0 * _U * float(n) ** np.arange(1, 5)
    node_factors.flags.writeable = False
    return (_FFT_ROUNDING * _U * np.log2(N) * np.sqrt(N), node_factors,
            _SUM_ROUNDING * _U * (n + 1), (n * TWO_PI * gap / N) ** 2)


@functools.lru_cache(maxsize=32)
def _numerator_powers(split) -> np.ndarray:
    """|f|^k for k <= 3 (rows) over the 2 ell frequencies f of W, read-only."""
    powers = np.abs(numerator_frequencies(split)) ** np.arange(4)[:, None]
    powers.flags.writeable = False
    return powers


def _certificate(powers: np.ndarray, c: np.ndarray, n, N: int, grid_max: float,
                 gap: float, ell: int = 0) -> _Certificate:
    """Bounds for the function Re sum_j c_j e^{i f_j x} of degree n = max |f_j|
    (largest |c_j| O(1)), T or W, on a grid of N nodes of the circle, gap
    2 pi/N apart at most, whose largest |value| is grid_max; powers holds
    |f_j|^k for k <= 3 (rows).  ell is W's period, whose folded table's
    rounding the transform term then covers too, and 0 for T."""
    fft_factor, node_factors, sum_factor, nh2 = _certificate_factors(n, N, gap)
    mag = np.hypot(c.real, c.imag)
    total = float(mag.sum())
    # the transform, normwise (N. J. Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 24), plus the float grid nodes, which sit
    # within 16u of the exact ones.  One (4, terms) array, squared in place
    weighted = powers * mag
    np.square(weighted, out=weighted)
    delta_grid = fft_factor * np.sqrt(weighted.sum(axis=1))
    if ell:
        # W's table tally, u (13 + 2.9 ell) f_q^k per unit of w_q = 2 |c_q|
        # (module docstring), within 2 u (13 + 2.9 ell) sum_p |f_p|^k |d_p|
        np.maximum(delta_grid, 2.0 * _U * (13.0 + 2.9 * ell) * (powers @ mag), out=delta_grid)
    delta_grid += node_factors * total
    # the pointwise sums at |x| < 6.3, argument rounding included (module
    # docstring); the local cells also read the function at grid nodes,
    # hence at least delta_grid
    absolute = np.abs(c.real, out=mag)
    absolute += np.abs(c.imag)
    delta_point = np.maximum(sum_factor * (powers @ absolute), delta_grid)
    bound = total
    if nh2 < 8.0:
        # at the maximizer T' = 0 and a node lies within half a gap, so
        # max |T| <= grid max + (gap h/2)^2/2 * n^2 max |T|
        bound = min(bound, (grid_max + delta_grid[0]) / (1.0 - nh2 / 8.0))
    return _Certificate(n, bound, delta_grid, delta_point)


def _settle(lo, hi, f_lo, f_hi, d_lo, d_hi, mono, convex, concave, jet: Callable, delta,
            want_roots: bool):
    """(count, brackets, settled): the one rule for cells (lo, hi) whose
    end values f_lo, f_hi of T have certain signs and on which T is
    monotone (mono) or has one sign of T'' (convex, concave): _grid_cells'
    convex and concave cells and _local_stage's cells.

    The three masks, numpy bools or arrays, exclude each other.  A sign
    change across such a cell is one zero, and ends on the side that T
    bends away from mean none.  Otherwise (a cup) g = s T, s the sign of
    the ends, is convex with positive ends and holds no zero or two: d_lo
    and d_hi are T' at the ends, and jet(y, i) returns T(y) and T'(y) at
    the secant estimate y of the critical point of g (where the chord of
    g' vanishes) on the cells i, the pointwise jet whose rounding
    delta_0 and delta_1 are delta[0] and delta[1].  The tangent of g at y
    lies below g on the cell, so a cup holds no zero where the tangent
    clears delta_0 + (hi - lo) delta_1 on the cell, and two where
    g(y) < -delta_0; any other cup stays unsettled.  Returns the count of
    the settled cells, (lo, hi, T(lo), T(hi)) array tuples that bracket
    one zero each (only with want_roots: the cells of a sign change, and
    (lo, y) and (y, hi) of a cup with two), and the mask of settled cells.

    The masks and the sign changes are numpy operations on all the cells;
    the cups, about a quarter of the grid pass's cells, are decided one at
    a time in Python floats, which give the bits that numpy gives (y
    clipped to the cell as min(max(y, lo), hi)), with one jet call for all
    of them.
    """
    neg = np.signbit(f_lo)
    change = neg != np.signbit(f_hi)
    bent = convex | concave
    settled = mono | bent
    ones = change & settled
    count = int(np.count_nonzero(ones))
    brackets = [(lo[ones], hi[ones], f_lo[ones], f_hi[ones])] if want_roots else []
    # with equal end signs T bends towards 0 where the ends are negative
    # and T concave or positive and T convex
    cup = (bent & ~change & (neg == concave)).nonzero()[0]
    if not cup.size:
        return count, brackets, settled
    # the cups one at a time in Python floats, whose + - * /, min, max and
    # comparisons round as numpy's do: g and g' = s T' at the ends give
    # the secant estimate y, and one jet call reads T(y) and T'(y)
    cups = list(zip(lo[cup].tolist(), hi[cup].tolist(), neg[cup].tolist(),
                    d_lo[cup].tolist(), d_hi[cup].tolist()))
    points = []
    for a, b, negative, g0, g1 in cups:
        if negative:
            g0, g1 = -g0, -g1
        x = a if g0 >= 0.0 else b if g1 <= 0.0 else a + (b - a) * g0 / (g0 - g1)
        points.append(min(max(x, a), b))
    y = np.array(points)
    fy, dfy = jet(y, cup)
    delta0, delta1 = float(delta[0]), float(delta[1])
    two = []
    for row, ((a, b, negative, _, _), x, gy, dgy) in enumerate(zip(cups, points, fy.tolist(),
                                                                   dfy.tolist())):
        if negative:
            gy, dgy = -gy, -dgy
        if gy + min(dgy * (a - x), dgy * (b - x)) > delta0 + (b - a) * delta1:
            continue  # the tangent clears the rounding: no zero
        if gy < -delta0:
            two.append(row)
        else:
            settled[cup[row]] = False
    count += 2 * len(two)
    if want_roots:
        at, y, fy = cup[two], y[two], fy[two]
        brackets += [(lo[at], y, f_lo[at], fy), (y, hi[at], fy, f_hi[at])]
    return count, brackets, settled


def _grid_cells(seq: np.ndarray, cells: np.ndarray, layout: _Layout, cert: _Certificate,
                clear0: float, jet: Callable, want_roots: bool):
    """(count, brackets, left): the tests of open cells of the layout, all
    of one weight, on the grid's own T and T'.

    seq holds T and T' at the layout's sequence nodes (_Layout.sequence).
    The hull test proves cells zero-free and the monotone test counts the
    sign change of the cells it passes; on the cells that neither settles,
    the curvature test hands the convex and concave ones to _settle, with
    jet, the trial's order-1 pointwise jet, and its rounding
    cert.delta_point: a cup is decided on T itself, as in the local
    stage, and only a cup reads jet.  The curvature test runs on the few
    cells left (a handful at benchmark sizes, a few hundred at
    n = 12000), as numpy operations on their columns.  Returns the count
    of the settled cells, their root brackets (only with want_roots) and
    (lo, hi, T(lo), T(hi)) of the cells left to the local stage.
    """
    delta = cert.delta_grid
    # mode="wrap" ends the whole circle's wrap cell at node 0
    (f_lo, s0), (f_hi, s1) = seq.take(cells, axis=1), seq.take(cells + 1, axis=1, mode="wrap")
    if layout.flip and cells.size and cells[-1] == layout.columns - 1:
        f_hi[-1], s1[-1] = -f_hi[-1], -s1[-1]  # W(x_0 + 2 pi) = -W(x_0)
    thirds, inverse = layout.width_tables
    entry = cells & (thirds.size - 1)
    above, below = _hull_sides(f_lo, s0, f_hi, s1, thirds[entry], clear0)
    zero_free = above | below
    # T is monotone where the control points of p' clear their bound with
    # one sign.  A monotone cell counts its computed sign change: along a
    # run of them T is monotone, so the changes telescope even across a
    # node value within rounding of 0, and a run ends at nodes whose sign
    # is certain (zero-free cells) or at a cell that stays undecided (the
    # local tests demand certain end signs).  Zero-free cells take the
    # test too, but their outcome is not used.  The middle control point
    # takes each cell's own width, the clearances the larger of those of
    # the layout's widths
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
        # an end value within rounding of 0 is the root itself (to
        # ~delta_0/|T'|)
        at = cells[change]
        lo, hi = layout.positions(at), layout.positions(at + 1)
        v_lo, v_hi = f_lo[change], f_hi[change]
        at_lo = np.abs(v_lo) <= delta[0]
        at_hi = np.abs(v_hi) <= delta[0]
        brackets.append((np.where(at_hi, hi, lo), np.where(at_lo, lo, hi), v_lo, v_hi))
    rest = (~(zero_free | mono)).nonzero()[0]
    if not rest.size:  # nothing left for the curvature test
        return count, brackets, (f_lo[rest],) * 4
    # the columns of all open cells are freed before the curvature test
    # allocates its own
    cells, f_lo, s0, f_hi, s1, mid = (column[rest] for column in (cells, f_lo, s0, f_hi, s1, mid))

    # p'' is linear, so T'' keeps one sign on a cell where both rises
    # mid - T'(lo) and T'(hi) - mid clear bend_clearance (at the larger of
    # the layout's two widths) with that sign.  Such a cell with both end
    # values beyond delta_0 goes to _settle, whose cups read T itself from
    # the pointwise jet
    bend = max(cert.bend_clearance(layout.h * width, delta) for width in layout.widths)
    rise_lo = mid - s0
    rise_hi = s1 - mid
    certain = np.minimum(np.abs(f_lo), np.abs(f_hi)) > delta[0]
    concave = certain & (np.maximum(rise_lo, rise_hi) < -bend)
    convex = certain & (np.minimum(rise_lo, rise_hi) > bend)
    lo, hi = layout.positions(np.array([cells, cells + 1]))
    found, bracketed, settled = _settle(lo, hi, f_lo, f_hi, s0, s1, np.False_, convex, concave,
                                        jet, cert.delta_point, want_roots)
    left = ~settled
    return count + found, brackets + bracketed, (lo[left], hi[left], f_lo[left], f_hi[left])


def _local_stage(cert: _Certificate, jet_at: Callable, jet: Callable, lo, hi, f_lo, f_hi,
                 split: float, max_doublings: int, want_roots: bool):
    """(count, depth, stable, brackets) of the local stage on the cells
    (lo, hi), whose grid values are f_lo, f_hi.

    The cells are those of one weight that _grid_cells leaves: no test on
    the grid's T and T' settles them (hull, monotone or curvature).  T',
    T'' and T''' at their ends are read pointwise (jet_at(x), the rows of
    orders 0 to 3: evaluate_jet, or numerator_jet for W), and T too at
    the split points; T at the grid nodes keeps its grid value, so
    that every node has one sign for the cells on both sides of it.  A
    cell is certified when the Hermite control points of T clear their
    bound (no zero), or, with both end values beyond delta_0, when those
    of T' do (monotone) or those of T'' do (convex or concave), by
    _settle with jet, the trial's order-1 pointwise jet, and its rounding
    delta_0 and delta_1; the control points of T, T' and T'' are the
    three rows of one test.  Cells left are split at the fraction split
    of their width, at most max_doublings times.
    """
    ends = jet_at(np.concatenate([lo, hi]))
    ends[0, :lo.size], ends[0, lo.size:] = f_lo, f_hi
    jet_lo, jet_hi = ends[:, :lo.size], ends[:, lo.size:]
    delta = cert.delta_point
    count, depth, brackets = 0, 0, []
    while True:
        w = hi - lo
        above, below = _hull_sides(jet_lo[:3], jet_lo[1:], jet_hi[:3], jet_hi[1:], w / 3.0,
                                   cert.clearances(w, delta))
        none = above[0] | below[0]
        f0, f1 = jet_lo[0], jet_hi[0]
        certain = (np.abs(f0) > delta[0]) & (np.abs(f1) > delta[0]) & ~none
        mono = certain & (above[1] | below[1])
        curved = certain & ~mono
        found, bracketed, settled = _settle(lo, hi, f0, f1, jet_lo[1], jet_hi[1], mono,
                                            curved & above[2], curved & below[2], jet, delta,
                                            want_roots)
        count += found
        brackets += bracketed
        keep = ~(none | settled)
        if not keep.any():
            return count, depth, True, brackets
        lo, hi, jet_lo, jet_hi = lo[keep], hi[keep], jet_lo[:, keep], jet_hi[:, keep]
        if depth == max_doublings:
            # a cell left undecided counts the change of sign bit across
            # it, as the monotone cells do
            change = np.signbit(jet_lo[0]) != np.signbit(jet_hi[0])
            if want_roots:
                brackets.append((lo[change], hi[change], jet_lo[0, change], jet_hi[0, change]))
            return count + int(np.count_nonzero(change)), depth, False, brackets
        # at split = 1/2 this is the midpoint 0.5 (lo + hi) to the bit
        mid = (1.0 - split) * lo + split * hi
        jet_mid = jet_at(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        jet_lo = np.concatenate([jet_lo, jet_mid], axis=1)
        jet_hi = np.concatenate([jet_mid, jet_hi], axis=1)
        depth += 1


def _certified_count(sample: PolySample, terms: _NumeratorTerms | _TableCoefficients,
                     grid_per_degree: int, max_doublings: int, want_roots: bool, tol: float):
    """(count, grid size, doublings, stable, roots) of the grid route on
    the function whose coefficient record count_zeros hands over.

    The record holds the counted function's coefficients scaled by a
    power of two so that the largest is O(1), at exponent 0: the bounds
    never overflow, and the signs are those of the sample itself.  A
    _NumeratorTerms record counts W = 2 sin(ell x/2) T on the whole
    circle, as count(W) - ell: its grid (W's folded table), certificate
    and pointwise jet read the ell class coefficients alone.  A
    _TableCoefficients record counts T, on the half circle where T is
    even (a cosine sample); each on its own grid (_grid_size).  The jet's
    weights or coefficient layout are built once a trial and shared by
    the cups, the local stage and Newton.  The open cells are decided one
    weight at a time (_Layout.parts): the grid pass, then the local stage
    on the cells it leaves.  The brackets of the roots are gathered only
    with want_roots; on W a single-zero bracket that holds a lattice
    point 2 pi k/ell holds that zero of W alone, and is dropped before
    Newton; the rest are refined on T itself (T's record of the sample)
    from W's own roots, those of an even (cosine) T only in [0, pi], each
    with its mirror image.
    """
    numerator = isinstance(terms, _NumeratorTerms)
    if numerator:
        split = terms.split
        degree, ell = split.n + split.ell / 2, split.ell
        layout = _grid_layout(_grid_size(degree, grid_per_degree, ell), False, ell % 2 == 1)
        seq = numerator_on_grid(terms, layout.columns, layout.offset)
        powers, c = _numerator_powers(split), terms.d
        jet_at = functools.partial(numerator_jet, terms)
    else:
        mirror = sample.model.kind == "cosine"
        layout = _grid_layout(_grid_size(terms.n, grid_per_degree, 4 if mirror else 1), mirror)
        seq = layout.sequence(evaluate_on_grid(terms, layout.columns, layout.offset, order=(0, 1),
                                               out=_scratch(0, (2, layout.columns))))
        powers, c, degree, ell = frequency_powers(terms.n, 3), terms.c, terms.n, 0
        jet_at = functools.partial(evaluate_jet, terms)
    size, slack = np.abs(seq, out=_scratch(1, seq.shape))
    cert = _certificate(powers, c, degree, layout.size, float(size.max()), layout.gap, ell)
    widest = layout.h * layout.gap
    clear0 = cert.grid_clearance(widest)
    # |f| - w |f'|/3 bounds the two control points beside a node on the
    # side of f for cells of width w or less: cells whose ends both pass
    # with one sign are zero-free, and only the others (open) take the
    # full hull test
    slack *= widest / 3.0
    size -= slack
    cells = _screen(seq[0], size, clear0, layout)
    # the function and its slope at any points: the one pointwise jet of
    # grid cups, the local stage's cups and the root refinement
    jet = lambda x, _: jet_at(x, order=1)  # noqa: E731
    count, depth, stable, brackets = -ell, 0, True, []  # count(T) = count(W) - ell
    for part, weight in layout.parts(cells):
        found, bracketed, left = _grid_cells(seq, cells[part], layout, cert, clear0, jet,
                                             want_roots)
        if left[0].size:
            more, deep, settled, pointwise = _local_stage(
                cert, jet_at, jet, *left, layout.split, max_doublings, want_roots)
            found += more
            bracketed += pointwise
            depth, stable = max(depth, deep), stable and settled
        count += weight * found
        brackets += [(weight, ends) for ends in bracketed]

    roots = None
    if want_roots:
        weights, ends = zip(*brackets)
        lo, hi, f_lo, f_hi = (np.concatenate(column) for column in zip(*ends))
        # a zero of a cell that stands for its mirror image too brings 2 pi - x
        twice = np.repeat(np.array(weights) == 2, [part.size for part, *_ in ends])
        start = None
        if numerator:
            period = TWO_PI / split.ell
            keep = np.ceil(lo / period) * period > hi  # no lattice point in [lo, hi]
            # start at W's own roots (O(ell) a point): one pass of T's jet mostly ends each
            start = _refine_roots(jet, lo, hi, f_lo, f_hi, tol)
            if sample.model.kind == "cosine":
                # T is even: its roots in [0, pi] (mod 2 pi) and their mirror images
                keep &= np.mod(start, TWO_PI) <= np.pi
                twice = keep
            lo, hi, f_lo, f_hi, twice, start = (v[keep] for v in (lo, hi, f_lo, f_hi, twice, start))
            # Newton on T itself: beside the lattice W's rounding over
            # |W'| = |s T'| would move a zero 1/|s| times more than T's
            # rounding over |T'|.  s has one sign on a bracket, so T's ends
            # have the signs of W/s
            f_lo, f_hi = (f / np.sin(0.5 * split.ell * x) for f, x in ((f_lo, lo), (f_hi, hi)))
            table = _TableCoefficients(sample.n, sample.normalized[0])
            jet = lambda x, _: evaluate_jet(table, x, order=1)  # noqa: E731
        found = _refine_roots(jet, lo, hi, f_lo, f_hi, tol, start)
        roots = np.sort(np.mod(np.concatenate([found, TWO_PI - found[twice]]), TWO_PI))
    return count, layout.size, depth, stable, roots


@dataclass(frozen=True)
class CarrierPhase:
    """The continuous phase theta of the reduced factor of an r = 0 sample.

    With c_k = (a_k - i b_k) 2^-e the first ell coefficients, normalized
    by the exponent e of PolySample.peak (the bits that
    PolySample.normalized gives them), P(z) = sum_k c_k z^k and
    f0 = (m-1) ell/2,

        T^*(x) = 2^e Re(e^{i f0 x} P(e^{ix})) = 2^e |P(e^{ix})| cos theta(x).

    Writing P = c_d prod (z - alpha) and w = #{|alpha| < 1},

        theta(x) = (f0 + w) x + arg c_d + sum_{|alpha|>1} arg(-alpha)
                   + sum_{|alpha|<1} Arg(1 - alpha e^{-ix})
                   + sum_{|alpha|>1} Arg(1 - e^{ix}/alpha);

    every Arg has its argument in the right half plane, so theta is
    continuous without unwrapping and theta(2 pi) = theta(0) + 2 pi (f0 + w).
    Fields: the roots of P split into inside and outside, and constant =
    arg c_d + sum_{|alpha|>1} arg(-alpha).
    """

    f0: float
    coeffs: np.ndarray
    exponent: int
    inside: np.ndarray
    outside: np.ndarray
    constant: float

    @property
    def slope(self) -> float:
        return self.f0 + self.inside.size

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([self.inside, self.outside])

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        theta = self.slope * x + self.constant
        if self.inside.size:
            theta += np.angle(1.0 - self.inside[:, None] * np.exp(-1j * x)).sum(axis=0)
        if self.outside.size:
            theta += np.angle(1.0 - np.exp(1j * x) / self.outside[:, None]).sum(axis=0)
        return theta

    def derivative(self, x) -> np.ndarray:
        """theta'(x) = f0 + Re(z P'(z) / P(z)) at z = e^{ix}."""
        z = np.exp(1j * np.asarray(x, dtype=float))
        c = self.coeffs
        p = np.polyval(c[::-1], z)
        zdp = np.polyval((np.arange(c.size) * c)[::-1], z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.f0 + (zdp / p).real

    def breakpoints(self) -> np.ndarray:
        """Sorted abscissae in [0, 2 pi) where theta' may change sign.

        theta' = f0 + Re(z P'/P) on z = e^{ix}; z^(ell-1) |P|^2 theta' is
        Q(z) = sum_{j,k} (f0 + (j+k)/2) c_j conj(c_k) z^(j-k+ell-1), so the
        breakpoints are the arguments of Q's roots within BREAKPOINT_CUT
        of the unit circle.
        """
        c = self.coeffs
        j = np.arange(c.size)
        c_rev = np.conj(c)[::-1]
        q = (self.f0 * np.convolve(c, c_rev) + 0.5 * np.convolve(j * c, c_rev)
             + 0.5 * np.convolve(c, (j * np.conj(c))[::-1]))
        z = _polynomial_roots(q[::-1])
        z = z[np.abs(np.abs(z) - 1.0) < BREAKPOINT_CUT]
        return np.sort(np.mod(np.angle(z), TWO_PI))


def carrier_phase(sample: PolySample) -> CarrierPhase:
    """The CarrierPhase of an r = 0 sample's reduced factor, from the roots
    of P; the sample must be finite, nonzero and repeat its coefficients
    with period ell, which count_zeros checks."""
    split = sample.split
    return _carrier_phase((split.m - 1) * split.ell / 2.0,
                          *models._scaled(sample.a[:split.ell], sample.b[:split.ell], sample.peak))


def _carrier_phase(f0: float, c: np.ndarray, e: int) -> CarrierPhase:
    """The CarrierPhase of P's coefficients c at exponent e and f0."""
    alpha = _polynomial_roots(c[::-1])
    inside = np.abs(alpha) < 1.0
    outside = alpha[~inside]
    constant = float(np.angle(c[np.flatnonzero(c)[-1]]) + np.angle(-outside).sum())
    return CarrierPhase(f0=f0, coeffs=c, exponent=e, inside=alpha[inside], outside=outside,
                        constant=constant)


@functools.lru_cache(maxsize=3)
def _proof_table(ell: int) -> np.ndarray:
    """The (2K + 2, ell) table of the monotone-phase proof for a P of ell
    coefficients, K = _PROOF_NODES, read-only.  Row j <= K holds
    e^{2 pi i t/K} at t = (j k) mod K, k < ell, each entry a rounded K-th
    root of unity, and row K + 1 + j the same times k: table @ c reads p
    and p'/i at the nodes 2 pi j/K, node K being node 0 again."""
    K, k = _PROOF_NODES, np.arange(ell)
    unit = np.exp(1j * (TWO_PI / K) * np.arange(K))[np.outer(np.arange(K + 1), k) % K]
    return _read_only(_wave_rows(unit, k))


def _wave_rows(phases: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The rows of a proof table: the phases e^{i f_k x_j} (a row a node, a
    column a term) and below them the same times f_k, so that table @ c
    reads sum_k c_k e^{i f_k x} and its slope over i at the nodes."""
    return np.concatenate([phases, phases * freqs])


def _turns(p: np.ndarray) -> np.ndarray:
    """The angle of p_{j+1} conj(p_j) for consecutive node values: the move
    of arg p across each cell, exact up to rounding where it is below pi."""
    return np.angle(p[1:] * p[:-1].conj())


def _monotone_winding(c: np.ndarray, f0: float) -> Optional[int]:
    """The winding number w of P(z) = sum_k c_k z^k about 0 on the unit
    circle where the monotone-phase proof (module docstring) shows
    theta' = f0 + Im(p'/p) > 0 on the whole circle, p(x) = P(e^{ix});
    None where it does not.

    On each of the K cells of width h, |p| >= lo = (|p_j| + |p_{j+1}| -
    h S1)/2 - delta_0 and |p'| <= hi = (|p'_j| + |p'_{j+1}| + h S2)/2 +
    delta_1; the proof asks F (lo - K delta_0) > hi on every cell, with
    F = min(f0, 3/h), as one comparison of F (|p_j| + |p_{j+1}|) -
    (|p'_j| + |p'_{j+1}|) with a scalar.  A P of more than K coefficients
    is not resolved by K nodes and is left to the phase route, and so is
    one that Parseval shows cannot pass, before any table is built.
    """
    ell, K = c.size, _PROOF_NODES
    if ell > K:
        return None
    powers = frequency_powers(ell - 1, 2)
    h = TWO_PI / K
    slope = min(f0, 3.0 / h)
    mag = np.abs(c)
    # Parseval: |p'| < F |p| on the whole circle needs
    # sum k^2 |c_k|^2 < F^2 sum |c_k|^2
    square, _, slope_square = (powers @ (mag * mag)).tolist()
    if slope_square >= slope * slope * square:
        return None
    s0, s1, s2 = (powers @ mag).tolist()
    delta = 8.0 * (ell + 8) * _U  # delta_0/S0 and delta_1/S1
    need = slope * (h * s1 + 2.0 * (K + 1) * delta * s0) + h * s2 + 2.0 * delta * s1
    # the mean of |p_j| is at most sqrt(square): then no cell passes
    if 2.0 * slope * math.sqrt(square) <= need:
        return None
    values = _proof_table(ell) @ c
    size = np.abs(values)
    margin = slope * size[:K + 1] - size[K + 1:]  # F |p_j| - |p'_j|
    if not (margin[:-1] + margin[1:]).min() > need:
        return None
    return round(float(_turns(values[:K + 1]).sum()) / TWO_PI)


@functools.lru_cache(maxsize=8)
def _carrier_frequencies(split):
    """(freqs, powers) of the carrier proof of the split's W, read-only:
    the carrier exponents e_q = q + ell [q < r] - shift, shift = r +
    (ell - 1)//2, then the slow frequencies s_q = q - ell/2, and |e_q|^k
    and |s_q|^k for k <= 2 (rows), whose products with |c_q| are the sums
    S_k of P and S_k' of Q."""
    ell, r = split.ell, split.r
    q = np.arange(ell)
    freqs = np.concatenate([q + ell * (q < r) - (r + (ell - 1) // 2), q - ell / 2.0])
    powers = np.abs(freqs).reshape(2, 1, ell) ** np.arange(3)[:, None]
    return _read_only(freqs), _read_only(powers.reshape(6, ell))


@functools.lru_cache(maxsize=8)
def _carrier_table(split, N: int):
    """(table, slopes, nodes, index) of the carrier proof of the split's W
    on its grid of N nodes, read-only.

    index holds the grid indices i_j = j N // K of the K + 1 proof nodes,
    K = _CARRIER_NODES, and nodes their abscissae h (i_j + g), h = 2 pi/N:
    the bits of the grid's own nodes (_Layout.positions), node K at
    h (N + g), node 0 moved by 2 pi up to rounding.  Of the _wave_rows of
    _carrier_frequencies at the nodes, the (2 (K + 1), ell) table holds
    the phases, so that table @ c reads P and then Q there, and slopes
    those of P times e_q, which read P'/i."""
    K, ell = _CARRIER_NODES, split.ell
    index = np.arange(K + 1) * N // K
    nodes = (TWO_PI / N) * (index + GRID_OFFSET)
    freqs = _carrier_frequencies(split)[0]
    rows = _wave_rows(np.exp(1j * np.outer(nodes, freqs)), freqs)
    table = np.concatenate([rows[:K + 1, :ell], rows[:K + 1, ell:], rows[K + 1:, :ell]])
    return (_read_only(table[:2 * K + 2]), _read_only(table[2 * K + 2:]), _read_only(nodes),
            _read_only(index))


def _carrier_count(terms: _NumeratorTerms, grid_per_degree: int, max_doublings: int):
    """(count, grid size, doublings) of a periodic r != 0 sample where the
    carrier proof (module docstring) decides its count, else None.

    terms is count_zeros' record of W at exponent 0, W = Im(e^{iFx} P) -
    Im Q.  One table product reads P and Q at the proof nodes
    (_carrier_table); each proof cell is zero-free, a proved arc or a
    window by its chord bounds; the arcs are counted from psi -+ u at
    their ends (_carrier_arcs), the windows from the peaks of the carrier
    (_carrier_peaks), and the windows whose peaks do not decide on W's
    grid nodes inside them (_carrier_windows).  The count is T's,
    count(W) - ell; the grid size is that of W's grid route, whose nodes
    the windows read, and doublings the deepest local split in a window.
    Nothing is built where ell > _CARRIER_ELL, where a proof cell would
    hold fewer than _CARRIER_STRIDE ell grid cells, or where
    F S0 <= _CARRIER_GATE (S1 + S1'), the sums S_k of P and S_k' of Q.
    """
    split = terms.split
    ell, K = split.ell, _CARRIER_NODES
    degree = split.n + ell / 2
    # _grid_size is below 2 (max(256, grid_per_degree degree) + ell)
    if ell > _CARRIER_ELL or 2 * (max(256, grid_per_degree * degree) + ell) < (
            _CARRIER_STRIDE * ell * K):
        return None
    N = _grid_size(degree, grid_per_degree, ell)
    if N < _CARRIER_STRIDE * ell * K:
        return None
    F = (split.m - 0.5) * ell + (split.r + (ell - 1) // 2)
    freqs, powers = _carrier_frequencies(split)
    c = terms.c
    p0, p1, p2, q0, q1, q2 = (powers @ np.abs(c)).tolist()
    if not F * p0 > _CARRIER_GATE * (p1 + q1):
        return None
    table, slopes, nodes, index = _carrier_table(split, N)
    # the rounding of P, P'/i, Q and Q'/i at the nodes (module docstring)
    d0p, d1p, d0q, d1q = (8.0 * _U * ((ell + 8) * a + 2.0 * b)
                          for a, b in ((p0, p1), (p1, p2), (q0, q1), (q1, q2)))
    # the widest proof cell, ceil(N/K) grid cells; on it a chord of P or Q
    # misses the function by at most w^2/8 times S2 or S2'
    w = (TWO_PI / N) * -(-N // K) * (1.0 + _WIDTH_SLACK)
    # the chords' misses and the rounding of P and Q, and that of the few
    # operations below, below _CARRIER_SLACK S0 (|P| <= S0, |Q| <= S0')
    slack_p = w * w / 8.0 * p2 + d0p + _CARRIER_SLACK * p0
    slack_q = w * w / 8.0 * q2 + d0q + _CARRIER_SLACK * q0

    values = table @ c
    p = values[:K + 1]
    b = values[K + 1:].imag  # Im Q
    size = np.abs(p)
    z = p[1:] * p[:-1].conj()
    turn = np.angle(z)
    # |P| on a cell is at least the distance from 0 to the chord P_j P_(j+1)
    # less slack_p: to the line through them where the foot of the
    # perpendicular lies between them, else to the nearer end
    near = np.minimum(size[:-1], size[1:])
    near *= near
    step = np.abs(p[1:] - p[:-1])
    step *= step
    # a larger step only lowers the bound: no 0/0 where P_j = P_(j+1) and
    # rounding puts the foot between them
    step += 1e-300
    inside = z.real < near
    line = np.square(z.imag)
    np.divide(line, step, out=line, where=inside)
    low = np.sqrt(np.where(inside, line, near))
    low -= slack_p
    absb = np.abs(b)
    # arc: |P| > the floor and |P|^2 - (Im Q)^2 > (4 (S1 + S1')/(3 F))^2 on the
    # cell, so that F |P| - S1 >= 3 F |P|/4 and psi' > |u'|
    bhigh = np.maximum(absb[:-1], absb[1:])
    bhigh += slack_q
    up = 1.0 + _CARRIER_SLACK
    floor = max(_CARRIER_FLOOR * K * d0p, w * p1 / 3.0, 4.0 * p1 / F * up)
    gap = low - bhigh
    gap *= low + bhigh
    arc = (low > floor) & (gap > (4.0 * (p1 + q1) / (3.0 * F)) ** 2 * up)
    # zero-free: |Im Q| > |P| on the cell
    high = np.maximum(size[:-1], size[1:])
    high += slack_p
    blow = np.minimum(absb[:-1], absb[1:])
    blow -= slack_q
    same = b[:-1] * b[1:] > 0.0  # Im Q keeps one sign on the cell
    zero_free = (blow > high) & same
    kind = arc.view(np.int8) - zero_free.view(np.int8)  # _ARC, _ZERO_FREE or _WINDOW
    runs = (kind[1:] != kind[:-1]).nonzero()[0] + 1
    if kind[0] != kind[-1]:
        runs = np.concatenate([[0], runs])
    if not runs.size:
        # one kind on the whole circle: a turn of arc counts 2 (F + w), w the
        # winding number of P
        if kind[0] != _ARC:
            return None
        return round(2.0 * F) + 2 * round(float(turn.sum()) / TWO_PI) - ell, N, 0
    # the runs of one kind, cells [start, end) with end up to start + K, and
    # the turns of P summed from node 0
    total = np.concatenate([[0.0], turn.cumsum()])
    starts = runs.tolist()
    ends = starts[1:] + [starts[0] + K]
    kinds = kind[runs].tolist()
    arcs = [(a, e) for a, e, k in zip(starts, ends, kinds) if k == _ARC]
    count = 0
    if arcs:
        count = _carrier_arcs(arcs, p, b, total, nodes, F, (d0p, d0q))
        if count is None:
            return None
    windows = [(a, e) for a, e, k in zip(starts, ends, kinds) if k == _WINDOW]
    depth = 0
    if windows:
        found = _carrier_peaks(windows, freqs, c, p, slopes, b,
                               (low, high, blow, same), total, nodes, F,
                               (p0, p1, p2, q0, q1, q2), (d0p, d1p, d0q, d1q), w)
        if found is None:
            return None
        more, windows = found
        count += more
    if windows:
        bound = min(2.0 * p0, (float(size.max()) + slack_p + float(absb.max()) + slack_q) * up)
        found = _carrier_windows(terms, windows, index, N, degree, bound, max_doublings)
        if found is None:
            return None
        more, depth = found
        count += more
    return count - ell, N, depth


def _carrier_arcs(arcs, p, b, total, nodes, F: float, delta) -> Optional[int]:
    """The zeros of W on the proved arcs [start, end) (proof cells, end up to
    start + K), None where an end value of psi -+ u lies within its
    rounding of a level.

    On an arc psi - u and psi + u increase, so its zeros are the levels
    2 pi k of psi - u and pi + 2 pi k of psi + u crossed between its end
    nodes.  At node t (node t - K where t > K) psi = F x_t + arg P_t and
    u = arcsin(Im Q_t/|P_t|), and on node t - K the arc reads x + 2 pi and
    Q's values times (-1)^ell, those of node t; over the arc psi grows by
    F (x_end - x_start) plus the sum of the turns of P, which is rounded
    to a whole number of turns beside arg P_end - arg P_start.
    """
    K = total.size - 1
    d0p, d0q = delta
    flip = -1.0 if round(2.0 * F) % 2 else 1.0  # Q(x + 2 pi) = (-1)^ell Q(x)
    at = np.array(arcs).ravel()
    moved = (at > K).tolist()
    at = np.where(at > K, at - K, at)
    levels = []
    for pt, bt, x, shifted in zip(p[at].tolist(), b[at].tolist(), nodes[at].tolist(), moved):
        if shifted:
            x, bt = x + TWO_PI, flip * bt
        size = abs(pt)
        arg = math.atan2(pt.imag, pt.real)
        psi = F * x + arg
        v = bt / size
        u = math.asin(v)
        # the rounding of psi and u: F x and the sums beside them, arg P
        # moved by |dP|/|P|, and arcsin moved by its slope times that of v
        err_v = 1.1 * (d0q + abs(v) * d0p) / size + 2.0 * _U
        if not err_v < 0.25 * (1.0 - v * v):
            return None
        err = 2.0 * (_U * (4.0 * F * abs(x) + 4.0 * abs(psi) + 8.0) + 1.6 * d0p / size
                     + 2.0 * err_v / math.sqrt(1.0 - v * v))
        g1, g2 = (psi - u) / TWO_PI, (psi + u - math.pi) / TWO_PI
        f1, f2 = math.floor(g1), math.floor(g2)
        if min(g1 - f1, f1 + 1.0 - g1, g2 - f2, f2 + 1.0 - g2) * TWO_PI <= err:
            return None
        levels.append((f1 + f2, arg))
    count = 0
    for (start, end), (f_start, arg_start), (f_end, arg_end) in zip(arcs, levels[::2],
                                                                     levels[1::2]):
        span = total[end] - total[start] if end <= K else total[K] - total[start] + total[end - K]
        count += f_end - f_start + 2 * round((float(span) - (arg_end - arg_start)) / TWO_PI)
    return count


def _carrier_peaks(windows, freqs, c, p, slopes, b, bounds, total, nodes, F: float, sums,
                   delta, w: float):
    """(count, windows left) of W's zeros in the windows [start, end) (proof
    cells, end up to start + K) that the carrier peaks decide; None where
    an end value of W has no certain sign.

    On a window with |Im Q| >= LQ > 0 of one sign s and LP <= |P| <= HP,
    s W = |P| s sin psi - |Im Q| < 0 wherever s sin psi < LQ/HP: W can
    vanish only in the peaks |psi - (s pi/2 + 2 pi k)| <= theta, theta
    at least arccos(LQ/HP), where s W'' <= -kappa = -(F^2 LP cos theta -
    2 F S1 - S2 - S2') < 0.  So a peak (cut to the window) holds one zero
    where exactly one of its ends has s W > 0, none where both have, and
    else none or two: two where s W > 0 at a point y inside it, none where
    s W(y) + W'(y)^2/(2 kappa) < 0 (the concave s W lies below its tangent
    at y less kappa/2 times the square of the distance), or where y is the
    window's end beyond which the peak's centre lies and s W falls away
    from it.  y aims at the centre along the tangent of psi at the
    window's start, or is that end; P and Q are read there by one product
    of their phases at all the points.  psi rises (F LP > S1) and turns
    of P are below 3 on the window, so psi at its end is psi at its start
    plus F times its width plus the sum of the turns; the windows left go
    to _carrier_windows.
    """
    K = total.size - 1
    low, high, blow, same = bounds
    p0, p1, p2, q0, q1, q2 = sums
    d0p, d1p, d0q, d1q = delta
    flip = -1.0 if round(2.0 * F) % 2 else 1.0
    up, down = 1.0 + _CARRIER_SLACK, 1.0 - _CARRIER_SLACK
    # the rounding of s W and s W' at a point (module docstring)
    err0 = 2.0 * (d0p + d0q + 16.0 * _U * (F + 1.0) * (p0 + q0))
    err1 = 2.0 * (F * d0p + d1p + d1q + 16.0 * _U * (F + 1.0) * (F * p0 + p1 + q1))
    at = np.array(windows).ravel()
    at[at > K] -= K
    nodes_at = zip(*(v[at].tolist() for v in (p, b, nodes)), (slopes[at] @ c).tolist())
    left, peaks = [], []
    for start, end in windows:
        node_values = next(nodes_at), next(nodes_at)
        if end - start == 1:
            lp, hp, lq, one_sign = float(low[start]), float(high[start]), float(blow[start]), \
                bool(same[start])
        else:
            cells = np.arange(start, end) % K
            lp, hp, lq = float(low[cells].min()), float(high[cells].max()), float(
                blow[cells].min())
            one_sign = bool(same[cells].all())
        span = w * (end - start)
        if not (one_sign and lq > 0.0 and lp > 0.0 and F * down * lp > p1 * up
                and span * p1 < 3.0 * lp and lq > 0.5 * hp):
            left.append((start, end))
            continue
        theta = math.acos(lq * down / (hp * up)) * up + _PEAK_MARGIN
        kappa = (F * F * lp * math.cos(theta) * down - 2.0 * F * p1 - p2 - q2) * down
        if not kappa > 0.0:
            left.append((start, end))
            continue
        ends = []
        for t, (pt, bt, x, _) in zip((start, end), node_values):
            if t > K:
                x, bt = x + TWO_PI, flip * bt
            wave = complex(math.cos(F * x), math.sin(F * x)) * pt
            ends.append((x, F * x + math.atan2(pt.imag, pt.real), wave.imag - bt))
        (xa, psi_a, wa), (xb, psi_b, wb) = ends
        # psi' = F + Re(P'/(i P)) at the start, for the points y
        rate = F + (node_values[0][3] / node_values[0][0]).real
        sign = 1.0 if node_values[0][1] > 0.0 else -1.0
        fa, fb = sign * wa, sign * wb
        if not (abs(fa) > err0 and abs(fb) > err0):
            return None
        turns = total[end] - total[start] if end <= K else total[K] - total[start] + total[end - K]
        psi_b = psi_a + F * (xb - xa) + float(turns)
        centre = sign * math.pi / 2.0
        k_lo = math.ceil((psi_a - theta - centre) / TWO_PI)
        k_hi = math.floor((psi_b + theta - centre) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            mid = centre + TWO_PI * k
            lo_end, hi_end = mid - theta <= psi_a, mid + theta >= psi_b
            # y aims at the centre, or is the window's end beyond which it lies
            side = -1 if mid <= psi_a else 1 if mid >= psi_b else 0
            y = xa if side < 0 else xb if side > 0 else min(max(
                xa + (mid - psi_a) / rate, xa), xb)
            peaks.append((len(left), y, side, xa, psi_a, mid, theta, lo_end and fa > 0.0,
                          hi_end and fb > 0.0, sign, kappa))
        left.append(None)  # decided, unless one of its peaks is not
    if not peaks:
        return 0, [win for win in left if win is not None]
    # P, P'/i, Q and Q'/i at the points y
    y = np.array([peak[1] for peak in peaks])
    phases = np.exp(1j * np.outer(y, freqs))
    slopes = phases * freqs
    ell = c.size
    values = np.concatenate([phases[:, :ell], slopes[:, :ell], phases[:, ell:], slopes[:, ell:]],
                            axis=1).reshape(y.size, 4, ell) @ c
    found = [0] * len(left)
    for (slot, point, side, xa, psi_a, mid, theta, pos_lo, pos_hi, sign, kappa), (
            pv, dpv, qv, dqv) in zip(peaks, values.tolist()):
        if pos_lo and pos_hi:
            continue  # s W > 0 at both ends: none
        if pos_lo or pos_hi:
            found[slot] += 1
            continue
        carrier = complex(math.cos(F * point), math.sin(F * point))
        f = sign * ((carrier * pv).imag - qv.imag)
        df = sign * ((carrier * (F * pv + dpv)).real - dqv.real)
        # psi at y, unwrapped from the window's start: arg P moves less than
        # pi across the window
        psi = F * point + math.atan2(pv.imag, pv.real)
        psi += TWO_PI * round((psi_a + F * (point - xa) - psi) / TWO_PI)
        inside = abs(psi - mid) < theta - 2.0 * _PEAK_MARGIN
        if inside and f > err0:
            found[slot] += 2
        elif inside and f < -err0 and (f + (abs(df) + err1) ** 2 / (2.0 * kappa) < -err0
                                       or side * df > err1):
            pass  # none: below the tangent's top, or falling away from the end y
        else:
            left[slot] = windows[slot]  # to the grid as a whole
    return (sum(n for n, win in zip(found, left) if win is None),
            [win for win in left if win is not None])


def _carrier_windows(terms: _NumeratorTerms, windows, index, N: int, degree: float,
                     bound: float, max_doublings: int):
    """(count, doublings) of W's zeros in the windows [start, end) (proof
    cells, end up to start + K), counted on W's grid nodes inside them by
    the grid route's tests; None where a window end has no certain sign or
    the local stage leaves a cell undecided.

    A window ends at proof nodes, which are grid nodes; one that passes node
    K is cut there into two runs of grid nodes, the first ending at grid
    node N, whose values are those of node 0 times (-1)^ell (the grid
    route's wrap).  W and W' are read at all the windows' nodes from W's
    folded table (numerator_at_nodes), and the certificate is the grid
    route's with bound >= max |W| from the proof's nodes in place of its
    own; the cups and the local stage read numerator_jet.
    """
    K, split = index.size - 1, terms.split
    spans = []
    for start, end in windows:
        if end <= K:
            spans.append((index[start], index[end]))
        else:
            spans += [(index[start], N), (0, index[end - K])]
    lengths = [hi - lo + 1 for lo, hi in spans]
    last = np.cumsum(lengths) - 1
    at = np.concatenate([np.arange(lo, hi + 1) for lo, hi in spans])
    positions = (TWO_PI / N) * (at + GRID_OFFSET)
    wrap = at == N  # node N, read at node 0
    at[wrap] = 0
    seq = numerator_at_nodes(terms, N, GRID_OFFSET, at)
    if split.ell % 2:
        seq[:, wrap] = -seq[:, wrap]
    # the grid route's certificate of W, its bound lowered to the proof's
    cert = _certificate(_numerator_powers(split), terms.d, degree, N, math.inf, 1.0, split.ell)
    cert = dataclasses.replace(cert, bound=min(cert.bound, bound))
    ends = np.concatenate([last, last + 1 - lengths])
    if not np.abs(seq[0, ends]).min() > cert.delta_grid[0]:
        return None
    h = TWO_PI / N
    clear0 = cert.grid_clearance(h)
    layout = _Layout(N, at.size - 1, GRID_OFFSET, _read_only([GRID_OFFSET]), (1.0,), 0.5,
                     nodes=positions)
    margin = np.abs(seq[0])
    margin -= (h / 3.0) * np.abs(seq[1])
    cells = _screen(seq[0], margin, clear0, layout)
    if len(spans) > 1:
        joint = np.zeros(at.size, bool)  # no cell from one run to the next
        joint[last[:-1]] = True
        cells = cells[~joint[cells]]
    jet_at = functools.partial(numerator_jet, terms)
    jet = lambda x, _: jet_at(x, order=1)  # noqa: E731
    count, _, left = _grid_cells(seq, cells, layout, cert, clear0, jet, False)
    depth = 0
    if left[0].size:
        more, depth, settled, _ = _local_stage(cert, jet_at, jet, *left, layout.split,
                                               max_doublings, False)
        if not settled:
            return None
        count += more
    return count, depth


def _phase_count(sample: PolySample, want_roots: bool, tol: float):
    """(count, pieces, stable, roots) of the zeros of T^* on the circle.

    Counting alone, the monotone-phase proof is tried first: where it
    shows theta' > 0 on the whole circle the count is 2 (f0 + w) =
    (m - 1) ell + 2 w, with pieces = 1, stable True and no eigenvalue
    problem.  Otherwise, and with want_roots, the pieces of [0, 2 pi]
    end at the breakpoints; on each, theta is monotone and the zeros are
    the levels pi/2 + k pi it crosses:
    |floor(theta_end/pi - 1/2) - floor(theta_start/pi - 1/2)| of them.
    Each root is refined on its whole piece, as a zero of theta minus
    its level.
    """
    split = sample.split
    f0 = (split.m - 1) * split.ell / 2.0
    c, e = models._scaled(sample.a[:split.ell], sample.b[:split.ell], sample.peak)
    if not want_roots and split.ell < min(_PROOF_ELL, 2 * split.m):
        w = _monotone_winding(c, f0)
        if w is not None:
            return (split.m - 1) * split.ell + 2 * w, 1, True, None
    phase = _carrier_phase(f0, c, e)
    starts = np.concatenate([[0.0], phase.breakpoints()])
    theta = phase(starts)
    theta = np.append(theta, theta[0] + TWO_PI * phase.slope)
    levels = theta / np.pi - 0.5
    k = np.floor(levels)
    crossed = np.abs(np.diff(k)).astype(np.int64)
    count = int(crossed.sum())
    margin = PHASE_MARGIN * np.maximum(1.0, np.abs(theta))
    near_level = np.pi * np.abs(levels - np.rint(levels)) < margin
    near_circle = np.abs(np.abs(phase.roots) - 1.0) < PHASE_MARGIN
    stable = not (near_level.any() or near_circle.any())
    roots = None
    if want_roots:
        ends = np.append(starts, TWO_PI)
        piece = np.repeat(np.arange(crossed.size), crossed)
        # the i-th crossing of a piece is level floor(min) + 1 + i
        rank = np.arange(count) - np.repeat(np.cumsum(crossed) - crossed, crossed)
        target = np.pi * (np.minimum(k[:-1], k[1:])[piece] + 1.5 + rank)
        roots = _refine_roots(
            lambda x, i: (phase(x) - target[i], phase.derivative(x)),
            ends[piece], ends[piece + 1], theta[piece] - target,
            theta[piece + 1] - target, tol)
        roots = np.mod(roots, TWO_PI)
    return count, starts.size, stable, roots


def _check_count(name: str, value, least: int) -> None:
    """A ValueError naming the argument unless value is an integer >= least:
    a budget of 4.5 doublings would never meet depth == max_doublings, and
    its cells would split until memory ran out."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def count_zeros(sample: PolySample, grid_per_degree: int = GRID_PER_DEGREE, tol: float = 1e-10,
                want_roots: bool = False, max_doublings: int = MAX_DOUBLINGS) -> ZeroCountReport:
    """Count the real zeros of one sample in (0, 2 pi).

    Dispatch reads the split (PolySample.split) alone.  Samples whose
    split factors (r = 0, m >= 2, so never an i.i.d. one, the vacuous
    period) take the phase route (the deterministic zero set plus the
    exact phase count of the reduced factor T^*; grid_per_degree and
    max_doublings do not enter); counting alone, the monotone-phase
    proof, tried where ell < min(20, 2 m), decides most of them first,
    with no eigenvalue problem, and the phase route counts the rest.
    Every periodic sample with r != 0 (so ell <= n, m = 1 included) is
    counted from its lattice numerator W = 2 sin(ell x/2) T, a sum of
    2 ell sinusoids with no lattice spike, as count(W) - ell, on the
    whole circle.  Counting alone, the carrier proof, tried where
    ell <= 4 and the degree is large beside ell, decides most of them
    first from W's carrier and its O(ell) envelopes, with W's grid read
    in a few windows at most, and W's grid route counts the rest; where
    W leaves the count unstable, T itself is counted, and its report is
    taken if stable.
    The rest, the i.i.d. samples and m = 1 with r = 0, take the grid
    route on T itself.  The counted function's coefficient record (W's
    or T's, at exponent 0) is built here once and handed to the grid
    route, which takes T or W from it.  grid_per_degree is the nodes a
    degree of the function counted (_grid_size).  A cell that the grid's
    tests leave undecided is split at most max_doublings times, at the
    midpoint, to 2^-max_doublings 2 pi/N.  A cosine sample (T even; a
    nonzero b is a ValueError) counted from T is certified on the half
    circle, N/2 transformed nodes and their mirror images, split at the
    golden fraction g = 0.618 of a cell, to 2 g^(max_doublings + 1) 2 pi/N.
    At the default 7 both are finer than 4 splits at 32 nodes a degree,
    and a count certified within fewer splits is the same to the bit.  The
    returned count satisfies the hard ceiling 2n.

    Zeros count with their multiplicity.  The phase route adds the
    deterministic zeros of phi_m to the zeros of T^*, so a point where
    both vanish counts twice: x = pi does for every cosine sample with
    r = 0, ell odd and m even, where pi is a zero of phi_m and every
    frequency of T^* is half an odd integer, and its roots list pi
    twice.  The grid route never certifies a multiple zero: its cell
    stays undecided, counts its change of sign bit and makes the report
    unstable.

    Every route first checks the sample: a non-finite coefficient is a
    FloatingPointError, a vanishing sample a RuntimeError, and one whose
    coefficients do not repeat with the period ell of its split (i.i.d.:
    n + 1, so none) a ValueError: the phase route and W read ell alone.

    With want_roots, every zero is refined by safeguarded Newton inside
    its certified bracket (a cell, a sub-cell or a monotone piece of the
    phase), and tol, which must be finite and > 0 (else a ValueError),
    bounds the last step of each root; the deterministic
    zeros of the phase route are exact, and are listed only then (the
    count takes their number, split.deterministic_zeros = n + 1 - ell).
    Counting W, a single-zero bracket that holds a lattice point 2 pi k/ell
    holds a zero of W alone and is dropped, so the roots are T's.
    """
    _check_count("grid_per_degree", grid_per_degree, 1)
    _check_count("max_doublings", max_doublings, 0)
    # a tol of inf ends every root at its first iterate, and one <= 0 or
    # nan runs every root through the whole iteration budget
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    n = sample.n
    model = sample.model
    split = sample.split
    # the largest |a_k|, |b_k| that normalized reduces: nan or inf when an
    # entry is, 0 when the sample vanishes
    peak = sample.peak
    if not np.isfinite(peak):
        raise FloatingPointError("non-finite coefficient in the sample")
    if peak == 0.0:
        raise RuntimeError(
            f"the sample vanishes identically (every x is a zero); "
            f"model={model}, seed={sample.seed}"
        )
    if not sample.repeats:
        raise ValueError(f"coefficients that do not repeat with period ell={split.ell}; "
                         f"model={model}, seed={sample.seed}")
    # T's half circle and W's roots take T even
    if model.kind == "cosine" and not split.factors and sample.b.any():
        raise ValueError(f"nonzero b in a cosine sample, whose b is 0; model={model}, "
                         f"seed={sample.seed}")
    if split.factors:
        count, pieces, stable, roots = _phase_count(sample, want_roots, tol)
        count += split.deterministic_zeros  # the size of deterministic_zero_set
        if want_roots:
            roots = np.sort(np.concatenate([roots, deterministic_zero_set(split.m, split.ell)]))
        N = doublings = 0
    else:
        # the counted function's coefficients at exponent 0: W's ell class
        # pairs alone for r != 0, T's n + 1 otherwise
        ell = split.ell
        terms = (_NumeratorTerms(split, models._scaled(sample.a[:ell], sample.b[:ell], peak)[0])
                 if split.r else _TableCoefficients(n, sample.normalized[0]))
        decided = None
        if split.r and not want_roots:
            decided = _carrier_count(terms, grid_per_degree, max_doublings)
        if decided is not None:
            (count, N, doublings), stable, roots = decided, True, None
        else:
            count, N, doublings, stable, roots = _certified_count(
                sample, terms, grid_per_degree, max_doublings, want_roots, tol)
        if not stable and split.r:
            # a zero of T beside a lattice point is a close pair of W, which
            # W's rounding may hide: T itself, if stable
            direct = _certified_count(sample, _TableCoefficients(n, sample.normalized[0]),
                                      grid_per_degree, max_doublings, want_roots, tol)
            if direct[3]:
                count, N, doublings, stable, roots = direct
        pieces = 0
    # a degree-n trigonometric polynomial has at most 2n real zeros
    if count > 2 * n:
        raise RuntimeError(
            f"counted {count} zeros for degree n={n} (ceiling 2n={2 * n}); "
            f"model={model}, seed={sample.seed}"
        )
    return ZeroCountReport(count=count, grid_size=N, doublings_used=doublings, stable=stable,
                           roots=roots, pieces=pieces)
