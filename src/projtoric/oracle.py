"""Independent checks for the combinatorial claims.

Everything here recomputes a quantity by brute force or by a different
route than the main pipeline: matrix rank by Gaussian elimination,
minimum distance by enumerating codewords, class counts as distinct
(tight facets, coordinates mod q-1) keys, tight facets by the oracle's
own product, polygon areas by Pick's theorem. Nothing imports code.py.

A matrix is any array-like of element codes, one row per generator: a
uint16 array such as EvaluationMatrix.codes, or nested sequences of
ints. It is read, never written. row_basis returns a uint16 array.
Zero rows and copies of earlier rows are dropped first, which is exact:
a copy takes its original's updates while both are pending, the
original is pivoted first and zeroes it, and a row that never becomes a
pivot is never subtracted from another. rank_gf builds no basis for a
matrix wider than 16 LEAF. The row loop keeps no per-row state: a pivot
row is set aside as it stood until the end, so the rows nonzero at a
column are those to update.

The module keeps the last full reduction: q, the matrix converted to
uint16 and its row basis, read-only. Every row_basis call and both
distance oracles build the basis and keep it; so does rank_gf on a
matrix no wider than 16 LEAF, whose elimination is one row loop and
that loop the basis's. A wide rank_gf call keeps nothing. Any oracle
called on a matrix equal in shape and content under the same q reads
the kept basis instead of reducing again: rank_gf takes its length,
row_basis returns a copy. The key is the content, not the object, so a
matrix written in place between calls is reduced afresh.

Both distance oracles form codewords as GF.vaddmatmul products of
coefficient rows and a basis, an echelon basis or a systematic form of
it. The exhaustive distance takes only normalised messages (first
nonzero coefficient 1), as a unit multiple of a word has its weight; its
budget still caps q^k, the number of all messages. Brouwer-Zimmermann
forms them by weight w in the forms on m disjoint information sets: a
word none of them gave up to weight w weighs >= w + 1 on each set, so
the lightest word found is the distance once it weighs <= m (w + 1).
The meet in the middle weighs them all, tail words against the head
block a few columns at a time, weights summed in the narrowest unsigned
dtype that holds n, and stops at weight 1; no word is negated, as the
head block is a subspace. It runs where all messages fit one head block, or where
BZ_WORD_COST times the words Brouwer-Zimmermann is projected to form
exceed them (see min_distance_exhaustive).
The random bound draws what random.Random(seed).randrange would, draw
for draw: CPython's randrange(n) keeps the top n.bit_length() bits of
the next 32-bit output, drawing again while they are >= n, and
getrandbits(32 m) is the next m outputs, the first in the lowest word.
"""

from __future__ import annotations

import random
from math import comb, gcd

import numpy as np

from .gf import CAP, as_field, field_size


class BudgetExceededError(Exception):
    """Raised when an exhaustive search would enumerate too many words."""


LEAF = 8  # widest column range, and most rows, the recursion leaves to the row loop


def _chunks(count, width):
    """Slices of range(count) spanning at most 2^16 entries of rows this wide."""
    step = max(1, (1 << 16) // max(1, width))
    return [slice(i, i + step) for i in range(0, count, step)]


def _loop(W, field, record):
    """The row loop of _eliminate, rows updated on W's columns and on H's.
    A pivot row leaves the block as it stood until the end, so the rows
    nonzero at a column are the rows to update there. For prime q an update
    is one int64 multiply-add reduced by floor division: (p-1)^3 + (p-1),
    the multiplier unreduced, is past int32 at p = 65521 and far below 2^63."""
    p, width = field.p, W.shape[1]
    X = np.concatenate([W, np.zeros((len(W), min(W.shape) if record else 0), np.uint16)], axis=1)
    kept, col = {}, 0  # each pivot's row as it stood, H columns included, in pivot order
    while col < width:
        if not len(hits := X[:, col].nonzero()[0]):  # on to the first nonzero column
            col += int(X[:, col:width].any(axis=0).argmax())
            if not len(hits := X[:, col].nonzero()[0]):  # none is left
                break
        piv, update, slot = hits[0], hits[1:], width + len(kept)
        prow, inv = X[piv].copy(), field.inv(int(X[piv, col]))
        X[piv] = 0
        prow[slot:slot + 1] = 1  # the pivot row as it stood joins its update
        rows = X[update, col:]
        if field.k == 1:
            rows = rows[:, :1].astype(np.int64) * (p - inv) * prow[col:] + rows
            rows -= rows // p * p
        else:
            scale = field.vmul(rows[:, :1], int(field.vmul(inv, p - 1)))  # p - 1 is -1
            rows = field.vadd(rows, field.vmul(scale, prow[col:]))
        X[update, col:] = rows
        prow[slot:slot + 1] = 0
        kept[piv] = prow
        col += 1
    for piv, prow in kept.items():
        X[piv] = prow
    W[...] = X[:, :width]
    return np.array(list(kept), np.intp), X[:, width:width + len(kept)]


def _eliminate(W, field, record, basis, leaf=LEAF):
    """Eliminates W's columns in place, all rows pending, by the rule of
    row_basis. Returns the pivot rows in column order and, if record, H:
    on any columns further right W's rows end as they began plus H @ (the
    pivot rows as they began). Past leaf columns and LEAF rows the left
    half goes first, the right half takes rows += H_L @ (left pivot rows)
    and goes next, and H = [H_L + H_R H_L[right pivots], H_R]
    (FFLAS-FFPACK). Unless basis, the left pivot rows skip that update."""
    width = W.shape[1]
    if width <= leaf or len(W) <= LEAF:
        return _loop(W, field, record)
    h = width // 2
    left = np.flatnonzero(W[:, :h].any(axis=1))
    L = W[left, :h]
    pl, HL = _eliminate(L, field, True, basis)
    W[left, :h] = L
    moved = HL.any(axis=1)
    moved[pl] &= basis  # a pivot row's right half is read only as the basis
    pl = left[pl]
    W[left[moved], h:] = field.vaddmatmul(W[left[moved], h:], HL[moved], W[pl, h:])
    pending = W[:, h:].any(axis=1)
    pending[pl] = False
    right = np.flatnonzero(pending)  # pending, nonzero
    R = W[right, h:]
    pr, HR = _eliminate(R, field, record, basis)
    W[right, h:] = R
    pivots = np.concatenate([pl, right[pr]])
    if not record:
        return pivots, None
    H = np.zeros((len(W), len(pivots)), np.uint16)
    H[left, :len(pl)] = HL
    H[right, len(pl):] = HR
    H[right, :len(pl)] = field.vaddmatmul(H[right, :len(pl)], HR, H[right[pr], :len(pl)])
    return pivots, H


# (q, the matrix as converted, its read-only row basis): the last full
# reduction. It is read once per call and replaced whole, so a thread
# that races another reads one consistent triple or reduces afresh.
_kept = None


def _reduce(entries, field, basis):
    """The read-only row basis of the first copies of the distinct nonzero
    rows, or for a rank-only call wider than 16 LEAF their pivots: either
    way as long as the rank. A call that built the basis keeps it, with q
    and the matrix as converted, and a call on equal content under the
    same q returns it without eliminating. A call that keeps nothing
    holds no converted matrix past the dropping of zero rows and copies."""
    global _kept
    field = as_field(field)
    A = np.atleast_2d(np.asarray(entries, dtype=np.uint16))
    kept = _kept
    if kept and kept[0] == field.q and kept[1].shape == A.shape and np.array_equal(kept[1], A):
        return kept[2]
    key = None
    if basis or A.shape[1] <= 16 * LEAF:  # the elimination is the row loop's, a basis
        # an array of the caller's could be written in place after the call
        key = A if A.base is None and A is not entries else A.copy()
    first, nonzero = {}, A.any(axis=1)
    A = A[[i for i, row in enumerate(A) if nonzero[i] and first.setdefault(row.tobytes(), i) == i]]
    pivots = _eliminate(A, field, False, basis, 16 * LEAF)[0] if A.size else []
    if key is None:
        return pivots
    A = A[pivots]
    A.flags.writeable = False
    _kept = (field.q, key, A)
    return A


def row_basis(entries, field):
    """Row echelon basis over GF(q): at each column the first pending row
    (in input order) nonzero there becomes a basis row and is subtracted
    from the others nonzero there. Columns are halved recursively down to
    LEAF (16 LEAF for the whole matrix) or to at most LEAF rows, each
    update between halves being one GF.vaddmatmul. entries is any 2D
    array-like of element codes and is not written; the basis is a new
    uint16 array, in pivot order, a copy of the kept one."""
    return _reduce(entries, field, True).copy()


def rank_gf(entries, field):
    """Rank over GF(q): the pivot count of row_basis, the length of the
    kept basis on a repeat, with no basis built past 16 LEAF columns."""
    return len(_reduce(entries, field, False))


def _combinations(q, s):
    """All q^s coefficient vectors of length s as rows, the zero one first."""
    return np.indices((q,) * s, dtype=np.uint16).reshape(s, q ** s).T


def _exhaustive(basis, field):
    # meet in the middle: the head block holds all q^s combinations of
    # the last s rows. A word with a nonzero tail is a unit times a
    # normalised tail word (first nonzero coefficient 1) plus a head
    # word, and a unit multiple has the same weight. The heads are a
    # subspace, so the weights of w + h over all heads h are those of
    # w - h, and w - h is nonzero exactly where w != h.
    q = field.q
    B = np.asarray(basis, dtype=np.uint16)
    (r, n), s = B.shape, 0
    while s < r and q ** (s + 1) <= 4096:
        s += 1
    t = r - s
    coeffs = _combinations(q, s)
    # chunks keep each product's digit sums within 2^14 entries
    head = np.concatenate([field.vaddmatmul(0, coeffs[part], B[t:])
                           for part in _chunks(len(coeffs), 4 * field.k * n)])
    best = int(np.count_nonzero(head[1:], axis=1).min(initial=n))
    # m tail words against the H heads, c columns at a time: each c x m
    # x H comparison within CAP entries, summed into m x H weights
    headT, H, dt = np.ascontiguousarray(head.T), len(head), np.min_scalar_type(n)
    for i in range(t):  # the tails that lead with row i
        coeffs = _combinations(q, t - 1 - i)
        for part in _chunks(len(coeffs), max(4 * H, n)):
            if best == 1:  # no nonzero word weighs less
                return 1
            words = field.vaddmatmul(B[i], coeffs[part], B[i + 1:t]).T
            weights, c = np.zeros((words.shape[1], H), dt), max(1, CAP // (words.shape[1] * H))
            for a in range(0, n, c):
                weights += (words[a:a + c, :, None] != headT[a:a + c, None, :]).sum(axis=0, dtype=dt)
            best = min(best, int(weights.min()))
    return best


def _basis(entries, field):
    """The field and the kept, read-only echelon basis of the rows."""
    field = as_field(field)
    basis = _reduce(entries, field, True)
    if not len(basis):
        raise ValueError("zero matrix spans no nonzero codewords")
    return field, basis


def _nonnegative_int(value, what):
    # bool is an int subclass, and random.Random(True) draws what 1 draws
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be nonnegative and an int, not a bool, got {value!r}")


def _systematic(G, cols, field):
    """Gauss-Jordan on the k x n code array G, in place: each column of
    cols in turn that is nonzero on a row not yet a pivot row takes the
    first such row, scaled to 1, as its pivot and is cleared in every
    other row. Returns the k pivot columns, or None when cols hold fewer
    (G is then part way). For prime q a row update is one int64
    multiply-add reduced by floor division, as in _loop."""
    free, pivots, p = list(range(len(G))), [], field.p
    for c in cols:
        col = G[:, c].tolist()
        if (r := next((i for i in free if col[i]), None)) is None:
            continue
        inv, col[r] = field.inv(col[r]), 0
        if rows := [i for i in range(len(col)) if col[i]]:  # the rows to clear at c
            if field.k == 1:
                update = np.array(col, np.int64)[rows, None] * (p - inv) * G[r] + G[rows]
                update -= update // p * p
                G[rows] = update
            else:
                scale = field.vmul(np.array(col)[rows], field.vmul(inv, p - 1))  # -col[i] inv
                G[rows] = field.vadd(G[rows], field.vmul(scale[:, None], G[r]))
        G[r] = field.vmul(G[r], inv)
        free.remove(r)
        pivots.append(c)
        if not free:
            return pivots
    return None


def _forms(B, field):
    """Systematic forms of the basis B on greedy disjoint information
    sets, one by one: each set takes its pivots from the columns that
    the earlier ones left, while those still have rank k. Each form is
    transposed and has its identity columns dropped."""
    G, rest = B.copy(), np.ones(B.shape[1], bool)  # the columns no set has taken
    while rest.sum() >= len(B):
        if (pivots := _systematic(G, np.flatnonzero(rest), field)) is None:
            return
        rest[pivots] = False
        yield np.delete(G, pivots, axis=1).T.copy()


# Brouwer-Zimmermann runs only where BZ_WORD_COST times the words it is
# projected to form stay within the normalised messages. A formed word
# costs about 25 of the meet in the middle's per-message comparisons, but
# the search mostly finds a word lighter than the projection's least row
# weight and stops rounds earlier. With 8, the faster search ran on all but
# four of the corpus, 3D and 4D/5D codes past one head block when it was
# set, and those four lost at most 0.16 ms or 2%.
BZ_WORD_COST = 8


def _projected_words(q, k, m, least):
    """The words Brouwer-Zimmermann forms over m information sets, round
    by round, until m (w + 1) reaches least, the lightest known word."""
    words = 0
    for w in range(1, k + 1):
        words += m * comb(k, w) * (q - 1) ** (w - 1)
        if m * (w + 1) >= least:
            break
    return words


def _supports(k, w):
    """The C(k, w) w-subsets of range(k) as rows, in lex order: each
    (w-1)-subset followed by each index past its last."""
    S = np.arange(k)[:, None]
    for _ in range(w - 1):
        after = k - 1 - S[:, -1]
        S = np.repeat(S, after, axis=0)
        first = np.repeat(np.cumsum(after) - after, after)
        S = np.column_stack([S, S[:, -1] + 1 + np.arange(len(S)) - first])
    return S


def _messages(q, k, w, rows):
    """The normalised weight-w messages of length k (first nonzero
    coefficient 1) as columns, at most rows at a time: message i has
    support i // T of _supports(k, w) and its other coefficients i % T
    in base q - 1, each digit plus 1."""
    supports, T = _supports(k, w), (q - 1) ** (w - 1)
    place = (q - 1) ** np.arange(w - 1)
    for start in range(0, len(supports) * T, rows):
        i = np.arange(start, min(start + rows, len(supports) * T))
        U, at = np.zeros((k, len(i)), np.uint16), supports[i // T].T
        U[at[0], np.arange(len(i))] = 1
        U[at[1:], np.arange(len(i))] = (i % T) // place[:, None] % (q - 1) + 1
        yield U


def _brouwer_zimmermann(forms, best, field):
    # forms[j] is the transposed systematic form on information set j
    # without its identity columns, the sets disjoint. A codeword that no
    # message of weight < w gave in any form weighs >= w on each
    # information set; if the weight-w messages of forms 0..j-1 did not
    # give it either, it weighs >= m w + j in all. Once the lightest word
    # formed weighs no more, it is the distance. The rows (w = 1) are
    # formed already, best the lightest; a round of up to 2^16 messages
    # is formed once.
    (width, k), q, m = forms[0].shape, field.q, len(forms)
    rows = max(1, CAP // (4 * max(1, width)))  # four temporaries of a chunk's words within CAP
    for w in range(2, k + 1):
        kept = comb(k, w) * (q - 1) ** (w - 1) <= 1 << 16 and list(_messages(q, k, w, rows))
        for j, H in enumerate(forms):
            for U in kept or _messages(q, k, w, rows):
                if best <= m * w + j:
                    return best
                best = min(best, w + int(np.count_nonzero(field.vaddmatmul(0, H, U), axis=0).min()))
    return best


def min_distance_exhaustive(entries, field, budget=1 << 24):
    """True minimum distance, every nonzero codeword weighed or excluded.

    A basis row of weight 1 is the answer. Otherwise one of two exact
    searches runs over the normalised messages (first nonzero
    coefficient 1). Brouwer-Zimmermann takes greedy disjoint information
    sets: Gauss-Jordan forms of the basis on the columns that earlier
    sets left, while those still have rank k. Over m such sets it forms
    the words round by round by message weight w, form by form, and
    stops once the lightest word found weighs at most m w + j, the least
    weight of a word not yet formed when j forms have finished round w
    (m when none has started). The meet-in-the-middle search weighs all
    (q^k - 1)/(q - 1) messages instead where they fit one head block
    (4096), or where BZ_WORD_COST times the words of the rounds up to
    m (w + 1) reaching the least row weight of the basis and the forms
    exceeds them. That projection is taken first with the n // k sets
    there could be, off the first form, then with the real m.

    Refuses with BudgetExceededError when q^rank exceeds the budget;
    raises ValueError on a budget that is a bool or not an int >= 0, and
    on a rank-zero matrix.
    """
    _nonnegative_int(budget, "budget")
    field, B = _basis(entries, field)
    (k, n), q = B.shape, field.q
    if q ** k > budget:
        raise BudgetExceededError(f"q^k = {q ** k} exceeds the budget of {budget} words")
    least = int(np.count_nonzero(B, axis=1).min())  # the basis rows are words too
    if least == 1:  # no nonzero word weighs less
        return 1
    messages = (q ** k - 1) // (q - 1)
    if messages <= 4096:
        return _exhaustive(B, field)
    forms = []
    for H in _forms(B, field):
        forms.append(H)
        least = min(least, 1 + int(np.count_nonzero(H, axis=0).min()))
        if least <= len(forms):  # a nonzero word is nonzero on every information set
            return least
        if len(forms) == 1 and BZ_WORD_COST * _projected_words(q, k, n // k, least) > messages:
            return _exhaustive(B, field)
    if BZ_WORD_COST * _projected_words(q, k, len(forms), least) > messages:
        return _exhaustive(B, field)
    return _brouwer_zimmermann(forms, least, field)


def _random_coefficients(rng, q, k, iterations):
    """iterations rows c = [rng.randrange(q) for _ in range(k)], a zero
    row then set c[rng.randrange(k)] = 1 + rng.randrange(q - 1) (value
    drawn first), each draw read off a batch of rng's next words. Each
    batch finds the codes randrange(q) accepts and every all-zero window
    of k of them, keyed by its start's residue mod k and then its start:
    the rows from accepted code i are the windows i, i + k, ..., so the
    first zero one is one search away, whatever came before it."""
    words, at, rows, done = np.zeros(0, np.uint32), 0, [np.zeros((0, k), np.uint16)], 0
    hits = np.zeros(0, np.intp)  # the positions of the words randrange(q) accepts
    shift = 32 - q.bit_length()

    def draw(n):  # one randrange(n): from words[at:], then from rng itself
        nonlocal at
        while at < len(words):
            at += 1
            if (w := int(words[at - 1]) >> 32 - n.bit_length()) < n:
                return w
        return rng.randrange(n)

    while (need := iterations - done) > 0:
        i = int(np.searchsorted(hits, at))  # the first of them from at on
        if len(hits) - i < need * k:
            m = 2 * need * k  # the unread words and the next m
            more = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
            words, at = np.append(words[at:], more), 0
            hits = np.flatnonzero(words >> shift < q)
            codes = (words[hits] >> shift).astype(np.uint16)
            zero = np.flatnonzero(codes == 0)
            t = max(0, len(zero) - k + 1)  # codes[z:z + k] all 0: k zeros from z on
            zero = zero[:t][zero[k - 1:] - zero[:t] == k - 1]
            keys = np.sort(zero % k * len(codes) + zero)
            continue
        base = i % k * len(codes)
        j = int(np.searchsorted(keys, base + i))
        z = int(keys[j]) - base if j < len(keys) and keys[j] < base + len(codes) else len(codes)
        if z >= i + need * k:  # no zero row among the next need
            rows.append(codes[i:i + need * k].reshape(need, k))
            break
        C = codes[i:z + k].reshape(-1, k).copy()
        at = hits[z + k - 1] + 1  # its fix-up draws come next, and the later rows after them
        C[-1, draw(k)] = 1 + draw(q - 1)  # the value is drawn first, as in any assignment
        rows.append(C)
        done += len(C)
    return np.concatenate(rows)


def min_weight_random_upper(entries, field, iterations=200, seed=0):
    """Upper bound on the minimum distance from random codewords;
    iterations and seed are ints >= 0, not bools."""
    _nonnegative_int(iterations, "iterations")
    _nonnegative_int(seed, "seed")
    field, B = _basis(entries, field)
    (k, n), q = B.shape, field.q
    C = _random_coefficients(random.Random(seed), q, k, iterations)
    return int(np.count_nonzero(field.vaddmatmul(0, C, B), axis=1).min(initial=n))


def _tight(P):
    """P's lattice points and the mask of the facets tight at each, by one int64 product."""
    points = np.array(P.lattice_points, np.int64)
    return points, points @ np.array(P.normals, np.int64).T == -np.array(P.offsets, np.int64)


def reduction_class_count_unionfind(P, field):
    """Number of reduction classes from raw tight facet sets and
    coordinate congruences mod q-1, bypassing the face lattice. Union-find
    merges two lattice points exactly when their keys (tight facets,
    coordinates mod q-1) are equal, so its components are the distinct
    keys: the first lex-sorted key and each that differs from the one above."""
    points, tight = _tight(P)
    keys = np.concatenate([tight, points % (field_size(field) - 1)], axis=1)
    keys = keys[np.lexsort(keys.T)]
    return 1 + int(np.count_nonzero((keys[1:] != keys[:-1]).any(axis=1)))


def _monotone_chains(vertices):
    """A polygon's lex-sorted vertices in counterclockwise order: those on
    or below the line from the first vertex to the last, then those above
    it, reversed (monotone chains; A. M. Andrew, 1979)."""
    (x0, y0), (x1, y1) = vertices[0], vertices[-1]
    above = {v for v in vertices if (x1 - x0) * (v[1] - y0) > (y1 - y0) * (v[0] - x0)}
    return [v for v in vertices if v not in above] + [v for v in reversed(vertices) if v in above]


def pick_check(P):
    """Pick's theorem audit for a polygon: 2A = 2I + B - 2.

    Area comes from the shoelace formula over the vertices in monotone
    chain order, boundary count from edge gcds, interior count from the
    lattice points at which no facet is tight. Only defined in dimension 2.
    """
    if P.dim != 2:
        raise ValueError("Pick's theorem applies to polygons only")
    cyc = _monotone_chains(P.vertices)
    edges = list(zip(cyc, cyc[1:] + cyc[:1]))
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)
    boundary = sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
    points, tight = _tight(P)
    interior = int(np.count_nonzero(~tight.any(axis=1)))
    total_ok = len(points) == interior + boundary
    return total_ok and area2 == 2 * interior + boundary - 2
