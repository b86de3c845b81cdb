"""Batched spectra and subspace tracking: the per-sample loop they replaced is the reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenogate.errors import SubspaceTrackingFailure
from zenogate.linalg import random_hermitian, spectral_norm
from zenogate.spectral import (
    MIN_TRACKING_OVERLAP,
    SpectrumStack,
    circle_path,
    frame_path_from_spectra,
    instantaneous_spectra,
    instantaneous_spectrum,
    three_level_hamiltonian,
    track_levels,
)
from zenogate.spectral import _entry_major_matmul, _match_levels, _overlaps, _polar


def reference_spectrum(h, cluster_tol=1e-8):
    """Per-sample clusterer: walk the ascending eigenvalues, start a level at each gap above the tolerance."""
    w, v = np.linalg.eigh(h)
    tol = cluster_tol * max(1.0, float(np.abs(w).max()))
    energies, ranks, projectors, start = [], [], [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            block = v[:, start:i]
            p = block @ block.conj().T
            energies.append(float(w[start:i].mean()))
            ranks.append(i - start)
            projectors.append(0.5 * (p + p.conj().T))
            start = i
    return energies, ranks, projectors


def reference_frames(times, spectra):
    """Per-sample tracker over `reference_spectrum` results: greedy overlap matching, then
    W_k from B_n(k) = polar(P_n(k) B_n(k-1))."""
    _, ranks, first = spectra[0]
    bases = [np.linalg.eigh(p)[1][:, ::-1][:, :rank] for p, rank in zip(first, ranks)]
    bases0 = [b.copy() for b in bases]
    dim = first[0].shape[0]
    frames = [np.eye(dim, dtype=complex)]
    prev = list(first)
    for _, _, cand in spectra[1:]:
        used = []
        for n in range(len(first)):
            overlaps = [-1.0 if j in used else spectral_norm(cand[j] @ prev[n]) for j in range(len(cand))]
            used.append(int(np.argmax(overlaps)))
        prev = [cand[j] for j in used]
        w = np.zeros((dim, dim), dtype=complex)
        for n in range(len(first)):
            u, _, vh = np.linalg.svd(prev[n] @ bases[n], full_matrices=False)
            bases[n] = u @ vh
            w += bases[n] @ bases0[n].conj().T
        frames.append(w)
    return np.array(frames)


def reference_match_levels(spectra, overlaps):
    """Per-sample greedy matcher: at every sample, tracked level n = 0, 1, ... takes the unclaimed level of
    largest overlap with its level at the previous sample (the lower index on a tie)."""
    nlevels, ranks, overlaps = spectra.nlevels.tolist(), spectra.ranks.tolist(), overlaps.tolist()
    levels = range(nlevels[0])
    order = [list(levels)]
    for k in range(1, len(nlevels)):
        if nlevels[k] != len(levels):
            return np.array(order), (k, f"level count changed from {len(levels)} to {nlevels[k]} at sample {k}")
        rows, cur, free = overlaps[k - 1], [], list(levels)
        for n, i in enumerate(order[-1]):
            row = rows[i]
            j = max(free, key=row.__getitem__)
            if row[j] <= MIN_TRACKING_OVERLAP:
                message = f"projector overlap {row[j]:.3f} <= {MIN_TRACKING_OVERLAP}"
                return np.array(order), (k, f"{message} for level {n} at sample {k}")
            if ranks[k][j] != ranks[0][n]:
                message = f"rank changed from {ranks[0][n]} to {ranks[k][j]}"
                return np.array(order), (k, f"{message} for level {n} at sample {k}")
            free.remove(j)
            cur.append(j)
        order.append(cur)
    return np.array(order), None


def overlaps_of(spectra):
    v = np.ascontiguousarray(spectra.vectors.transpose(1, 2, 0))  # entry-major (d, c, K)
    return _overlaps(spectra, _entry_major_matmul(v[:, :, 1:].conj().swapaxes(0, 1), v[:, :, :-1]))


def assert_matches_the_reference(spectra, overlaps):
    order, failure = _match_levels(spectra, overlaps)
    expected, expected_failure = reference_match_levels(spectra, overlaps)
    assert order.dtype == expected.dtype and order.shape == expected.shape
    assert np.array_equal(order, expected)
    assert failure == expected_failure


def rotating_family(dim, ranks, energies, slopes, g, times):
    """H(t) = U(t) D(t) U(t)^dag with U(t) = exp(-i g t) and level n of rank ranks[n] at energies[n] + slopes[n] t."""
    w, v = np.linalg.eigh(g)
    u = np.einsum("ij,kj,lj->kil", v, np.exp(-1j * np.outer(times, w)), v.conj())
    levels = np.asarray(energies)[None] + np.outer(times, slopes)  # (K, L)
    d = np.repeat(levels, ranks, axis=1)
    return np.einsum("kij,kj,klj->kil", u, d, u.conj()), u, levels


def frame_defects(frames):
    w = frames.frames
    return np.linalg.norm(w.conj().transpose(0, 2, 1) @ w - np.eye(frames.dim), ord=2, axis=(1, 2))


def mixed_degeneracies(rng):
    """Six 4x4 Hamiltonians with levels of every rank pattern, one with a 1e-12 near-tie."""
    u = np.linalg.qr(rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4)))[0]
    d = np.array([[0.0, 0.0, 1.0, 2.0], [-1.0, 3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0],
                  [0.5, 1.5, 2.5, 3.5], [2.0, 2.0, 0.0, 0.0], [1.0, 1.0 + 1e-12, 4.0, 4.0]])
    return np.einsum("kij,kj,klj->kil", u, d, u.conj())


class TestInstantaneousSpectra:
    def test_stack_matches_the_per_sample_clustering(self, rng):
        hs = mixed_degeneracies(rng)
        stack = instantaneous_spectra(hs)
        projectors = stack.projectors()
        for k, h in enumerate(hs):
            energies, ranks, reference = reference_spectrum(h)
            n = len(ranks)
            assert stack.ranks[k].tolist() == ranks + [0] * (stack.ranks.shape[1] - n)
            np.testing.assert_allclose(stack.energies[k, :n], energies, rtol=0, atol=1e-14)
            assert np.isnan(stack.energies[k, n:]).all()
            assert np.abs(projectors[k, :n] - np.array(reference)).max() <= 1e-14

    def test_single_matrix_is_a_slice_of_the_stack(self, rng):
        hs = mixed_degeneracies(rng)
        stack = instantaneous_spectra(hs)
        for k, h in enumerate(hs):
            one = instantaneous_spectrum(h)
            n = one.ranks.shape[1]
            assert one.ranks[0].tolist() == stack.ranks[k, :n].tolist()
            np.testing.assert_array_equal(one.energies[0], stack.energies[k, :n])
            np.testing.assert_array_equal(one.vectors[0], stack.vectors[k])
        assert stack.nlevels.tolist() == [3, 2, 1, 4, 2, 2]

    def test_stack_is_checked_like_one_matrix(self):
        hs = three_level_hamiltonian(np.ones(3), np.zeros(3))
        hs[1, 0, 1] += 1e-6
        with pytest.raises(Exception, match="not Hermitian"):
            instantaneous_spectra(hs)
        hs[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            instantaneous_spectra(hs)


@pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-6, 0.3])
def test_closed_form_singular_values_near_a_tie(rng, gap):
    """The 2x2 closed form keeps s_1 and s_2 to rounding when they (nearly) coincide."""
    u = np.linalg.qr(rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2)))[0]
    a = u @ np.diag([1.0, 1.0 - gap]) @ v.conj().swapaxes(-1, -2)
    s, polar = _polar(a.transpose(1, 2, 0))  # entry-major: (2, 2, 8) in, (2, 8) and (2, 2, 8) out
    assert np.abs(s.T - [1.0, 1.0 - gap]).max() <= 1e-14
    assert np.abs(polar.transpose(2, 0, 1) - u @ v.conj().swapaxes(-1, -2)).max() <= 1e-13


class TestTrackLevels:
    @pytest.mark.parametrize("windings, samples", [(1, 257), (-2, 513)])
    def test_matches_the_per_sample_reference(self, windings, samples):
        path = circle_path(windings=windings, radius=1.3, center=(0.2, 0.1), samples=samples)
        hs = three_level_hamiltonian(path.a, path.b)
        frames, _ = track_levels(path.times, instantaneous_spectra(hs))
        reference = reference_frames(path.times, [reference_spectrum(h) for h in hs])
        assert np.abs(frames.frames - reference).max() <= 1e-12

    def test_matches_the_reference_through_a_level_crossing(self, rng):
        times = np.linspace(0.0, 1.0, 129)
        g = random_hermitian(4, rng)
        hs, _, _ = rotating_family(4, [2, 1, 1], [0.0, 1.0, 2.0], [2.3, 0.1, -1.6], g, times)
        frames, order = track_levels(times, instantaneous_spectra(hs))
        assert (order != order[0]).any()  # the energy order changes along the way
        assert np.abs(frames.frames - reference_frames(times, [reference_spectrum(h) for h in hs])).max() <= 1e-12

    def test_long_loop_stays_unitary(self):
        """Products of 4096 polar factors drift off unitarity unless re-unitarized."""
        path = circle_path(windings=1, radius=1.3, center=(0.2, 0.1), samples=4097)
        frames, _ = track_levels(path.times, instantaneous_spectra(three_level_hamiltonian(path.a, path.b)))
        assert frame_defects(frames).max() <= 1e-14

    def test_single_sample(self):
        stack = instantaneous_spectra(three_level_hamiltonian(1.0, 0.0)[None])
        frames, order = track_levels([0.0], stack)
        assert np.array_equal(frames.frames, np.eye(3)[None])
        assert order.tolist() == [[0, 1]]


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 5),
    cuts=st.sets(st.integers(1, 4), max_size=4),
    samples=st.integers(33, 160),
    seed=st.integers(0, 2**32 - 1),
)
def test_tracking_properties_on_smooth_families(dim, cuts, samples, seed):
    """Random H(t) = U(t) D(t) U(t)^dag with random degeneracy patterns; level energies may cross."""
    edges = [0] + sorted(c for c in cuts if c < dim) + [dim]
    ranks = np.diff(edges)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, samples)
    energies, slopes = rng.uniform(-2.0, 2.0, ranks.size), rng.uniform(-3.0, 3.0, ranks.size)
    hs, u, levels = rotating_family(dim, ranks, energies, slopes, random_hermitian(dim, rng, scale=0.5), times)
    gaps = np.abs(levels[:, :, None] - levels[:, None, :]) + np.eye(ranks.size)
    assume(gaps.min() > 1e-6)

    stack = instantaneous_spectra(hs)
    frames, order = track_levels(times, stack)

    assert np.array_equal(frames.frames[0], np.eye(dim))
    assert frame_defects(frames).max() <= 1e-12
    start = np.argsort(levels[0])  # tracked level n is the n-th lowest level at t = 0
    tracked_energies = np.take_along_axis(stack.energies, order, axis=1)
    for n, level in enumerate(start):
        block = u[:, :, edges[level] : edges[level + 1]]
        exact = block @ block.conj().transpose(0, 2, 1)
        assert np.abs(frames.projector_path(n) - exact).max() <= 1e-8
        assert np.abs(tracked_energies[:, n] - levels[:, level]).max() <= 1e-10


def spectra_of(*samples):
    """Hand-built SpectrumStack: sample k has one level per block of orthonormal columns in samples[k].

    Level energies are 0, 1, ...; samples with fewer levels or columns are
    padded with NaN energies, rank 0 and zero columns.
    """
    samples = [[np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks] for blocks in samples]
    shape = (len(samples), max(len(blocks) for blocks in samples))
    energies, ranks = np.full(shape, np.nan), np.zeros(shape, dtype=int)
    columns = [np.hstack(blocks) for blocks in samples]
    vectors = np.zeros((shape[0], columns[0].shape[0], max(c.shape[1] for c in columns)), dtype=complex)
    for k, blocks in enumerate(samples):
        energies[k, : len(blocks)] = range(len(blocks))
        ranks[k, : len(blocks)] = [b.shape[1] for b in blocks]
        vectors[k, :, : columns[k].shape[1]] = columns[k]
    return SpectrumStack(energies=energies, ranks=ranks, vectors=vectors)


E4 = np.eye(4)
TWO_PAIRS = (E4[:, :2], E4[:, 2:])
HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


class TestTrackingFailures:
    """Every failure names the first sample at which the per-sample tracker failed."""

    @pytest.mark.parametrize(
        "sequence, message",
        [
            ([TWO_PAIRS] * 2 + [(E4[:, :2], E4[:, 2], E4[:, 3])],
             "level count changed from 2 to 3 at sample 2"),
            ([tuple(E4.T)] * 3 + [tuple(HADAMARD.T)],
             "projector overlap 0.500 <= 0.5 for level 0 at sample 3"),
            ([(np.eye(3)[:, :2], np.eye(3)[:, 2])] * 2 + [(np.eye(3)[:, 0], np.eye(3)[:, 1:])],
             "rank changed from 2 to 1 for level 0 at sample 2"),
            ([TWO_PAIRS] * 2 + [(E4[:, [0, 2]], E4[:, [1, 3]])],
             "transported basis lost rank for level 0 at sample 2"),
            ([TWO_PAIRS] * 2 + [(E4[:, [0, 2]], E4[:, [1, 3]]), (E4[:, :2], E4[:, 2], E4[:, 3])],
             "transported basis lost rank for level 0 at sample 2"),
        ],
        ids=["level_count", "overlap", "rank_change", "rank_loss", "rank_loss_before_level_count"],
    )
    def test_first_failing_sample_is_named(self, sequence, message):
        with pytest.raises(SubspaceTrackingFailure) as err:
            frame_path_from_spectra(np.arange(len(sequence), dtype=float), spectra_of(*sequence))
        assert str(err.value) == message


OVERLAP_VALUES = st.sampled_from([0.0, 0.0, 0.0, 0.3, 0.5, 0.6, 1.0])


@st.composite
def matching_problems(draw):
    """(SpectrumStack, overlaps) in which runs of plain stays are broken by crossings, exact ties,
    overlaps of exactly 0.5 and changes of rank or level count; the matcher reads only ranks and overlaps."""
    ranks, blocks = [draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))], []
    for _ in range(draw(st.integers(0, 12))):
        prev = ranks[-1]
        event = draw(st.sampled_from(["stay"] * 6 + ["contend", "contend", "cross", "cross", "count", "rank"]))
        perm = list(range(len(prev))) if event in ("stay", "contend") else draw(st.permutations(range(len(prev))))
        nxt = [prev[perm.index(j)] for j in range(len(prev))]  # level i moves to perm[i]
        if event == "count":
            nxt = nxt + [1] if len(nxt) == 1 or draw(st.booleans()) else nxt[:-1]
        if event == "rank":
            j = draw(st.integers(0, len(nxt) - 1))
            nxt[j] = nxt[j] % 3 + 1
        block = np.zeros((len(prev), len(nxt)))
        if event in ("contend", "cross"):
            block = np.array(draw(st.lists(st.lists(OVERLAP_VALUES, min_size=len(nxt), max_size=len(nxt)),
                                           min_size=len(prev), max_size=len(prev))))
        for i, j in enumerate(perm):
            if j < len(nxt):
                block[i, j] = max(block[i, j], draw(st.sampled_from([0.5] + [0.6, 1.0] * 6)))
        ranks.append(nxt)
        blocks.append(block)
    padded = np.zeros((len(ranks), max(map(len, ranks))), dtype=int)
    overlaps = np.zeros((len(blocks),) + padded.shape[1:] * 2)
    for k, r in enumerate(ranks):
        padded[k, : len(r)] = r
    for k, block in enumerate(blocks):
        overlaps[k, : block.shape[0], : block.shape[1]] = block
    energies = np.where(padded > 0, 0.0, np.nan)
    return SpectrumStack(energies=energies, ranks=padded, vectors=np.zeros((len(ranks), 1, 1), dtype=complex)), overlaps


class TestMatchingIsThePerSampleGreedy:
    """The stacked matcher returns exactly the order and failure of the per-sample greedy loop."""

    @settings(max_examples=300, deadline=None)
    @given(problem=matching_problems())
    def test_drawn_overlaps(self, problem):
        assert_matches_the_reference(*problem)

    @pytest.mark.parametrize(
        "sequence",
        [
            [tuple(E4.T)],
            [TWO_PAIRS] * 3,
            [TWO_PAIRS, TWO_PAIRS[::-1], TWO_PAIRS, TWO_PAIRS[::-1]],
            [tuple(E4.T)] * 3 + [tuple(HADAMARD.T)],
            [TWO_PAIRS] * 2 + [(E4[:, :2], E4[:, 2], E4[:, 3])],
            [(np.eye(3)[:, :2], np.eye(3)[:, 2])] * 2 + [(np.eye(3)[:, 0], np.eye(3)[:, 1:])],
            [TWO_PAIRS] * 2 + [(E4[:, [0, 2]], E4[:, [1, 3]])],
        ],
        ids=["single_sample", "stays", "crossings", "overlap_half", "level_count", "rank_change", "rank_loss"],
    )
    def test_hand_built_spectra(self, sequence):
        stack = spectra_of(*sequence)
        assert_matches_the_reference(stack, overlaps_of(stack))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 5), cuts=st.sets(st.integers(1, 4), max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_crossing_families(self, dim, cuts, seed):
        edges = [0] + sorted(c for c in cuts if c < dim) + [dim]
        ranks = np.diff(edges)
        rng = np.random.default_rng(seed)
        energies, slopes = rng.uniform(-2.0, 2.0, ranks.size), rng.uniform(-3.0, 3.0, ranks.size)
        hs, _, _ = rotating_family(dim, ranks, energies, slopes, random_hermitian(dim, rng), np.linspace(0.0, 1.0, 97))
        stack = instantaneous_spectra(hs)
        assert_matches_the_reference(stack, overlaps_of(stack))


def legacy_small_matmul(a, b):
    return sum(a[..., :, i, None] * b[..., None, i, :] for i in range(a.shape[-1]))


def legacy_prefix_products(stack):
    out = stack.copy()
    shift = 1
    while shift < out.shape[0]:
        out[shift:] = legacy_small_matmul(out[shift:], out[:-shift])
        shift *= 2
    return out


def legacy_polar(a):
    r = a.shape[-1]
    if r > 2:
        u, s, vh = np.linalg.svd(a)
        return s, u @ vh
    det = a[..., 0, 0] if r == 1 else a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    phase = (det / np.where(det != 0, np.abs(det), 1.0))[..., None, None]
    if r == 1:
        return np.abs(det)[..., None], phase
    adj_h = np.stack([a[..., 1, 1], -a[..., 1, 0], -a[..., 0, 1], a[..., 0, 0]], axis=-1).reshape(a.shape).conj()
    z = a + phase * adj_h
    total = np.sqrt(0.5 * (np.abs(z) ** 2).sum(axis=(-1, -2)))
    diff = np.sqrt(0.5 * (np.abs(a - phase * adj_h) ** 2).sum(axis=(-1, -2)))
    top = 0.5 * (total + diff)
    bottom = np.abs(det) / np.where(top > 0, top, 1.0)
    return np.stack([top, bottom], axis=-1), z / np.where(total > 0, total, 1.0)[..., None, None]


def legacy_overlaps(spectra):
    v, ranks, offsets = spectra.vectors, spectra.ranks, spectra.offsets()
    m = v[1:].conj().swapaxes(-1, -2) @ v[:-1]
    members = spectra.members().astype(float)
    top = legacy_small_matmul(legacy_small_matmul(members[:-1], np.abs(m).swapaxes(-1, -2) ** 2),
                              members[1:].swapaxes(-1, -2))
    k, i, j = np.nonzero((ranks[:-1, :, None] > 1) & (ranks[1:, None, :] > 1))
    if k.size:
        width = np.arange(ranks.max())
        rows, cols = offsets[k + 1, j][:, None] + width, offsets[k, i][:, None] + width
        keep = (width < ranks[k + 1, j][:, None])[:, :, None] & (width < ranks[k, i][:, None])[:, None, :]
        last = v.shape[2] - 1
        block = np.where(keep, m[k[:, None, None], np.minimum(rows, last)[:, :, None],
                                 np.minimum(cols, last)[:, None, :]], 0.0)
        top[k, i, j] = legacy_polar(block)[0][:, 0] ** 2
    return np.sqrt(np.maximum(top, 0.0))


def legacy_track_levels(times, spectra):
    """`track_levels` as it ran on (K, r, r) stacks, kept as the bit-for-bit reference of the entry-major one."""
    times = np.asarray(times, dtype=float)
    order, failure = _match_levels(spectra, legacy_overlaps(spectra))
    tracked = times.size if failure is None else failure[0]
    vectors, offsets = spectra.vectors[:tracked], spectra.offsets()[:tracked]
    ranks = spectra.ranks[0, : order.shape[1]]
    bases = []
    for n, rank in enumerate(ranks):
        start = np.take_along_axis(offsets, order[:tracked, n][:, None], axis=1)
        bases.append(np.take_along_axis(vectors, (start + np.arange(rank))[:, None, :], axis=2))
    steps = [legacy_polar(legacy_small_matmul(q[1:].conj().swapaxes(-1, -2), q[:-1])) for q in bases]
    lost = [(int(k) + 1, n) for n, (s, _) in enumerate(steps) for k in np.flatnonzero(s[:, -1] <= 1e-12)[:1]]
    if lost:
        k, n = min(lost)
        raise SubspaceTrackingFailure(f"transported basis lost rank for level {n} at sample {k}")
    if failure is not None:
        raise SubspaceTrackingFailure(failure[1])
    dim = spectra.vectors.shape[1]
    frames = np.zeros((times.size, dim, dim), dtype=complex)
    for q, (_, factors) in zip(bases, steps):
        rot = np.concatenate([np.eye(q.shape[2])[None], legacy_prefix_products(factors)])
        rot = 1.5 * rot - 0.5 * legacy_small_matmul(rot, legacy_small_matmul(rot.conj().swapaxes(-1, -2), rot))
        frames += legacy_small_matmul(legacy_small_matmul(q, rot), q[0].conj().T)
    frames[0] = np.eye(dim)
    return frames, order


def conjugated_loop(rng, samples, windings=1):
    """The three-level loop (ranks 2 and 1) conjugated by a fixed random unitary, so every basis entry is complex."""
    path = circle_path(windings=windings, radius=1.3, center=(0.2, 0.1), samples=samples)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    return path.times, u @ three_level_hamiltonian(path.a, path.b) @ u.conj().T


class TestEntryMajorTrackingIsTheStackedOne:
    """The entry-major tracker returns the frames and order of the (K, r, r) one, bit for bit."""

    @staticmethod
    def assert_equal_to_the_legacy(times, spectra):
        frames, order = track_levels(times, spectra)
        expected, expected_order = legacy_track_levels(times, spectra)
        assert frames.frames.shape == expected.shape and order.shape == expected_order.shape
        assert np.array_equal(frames.frames, expected)
        assert np.array_equal(order, expected_order)
        return order

    @pytest.mark.parametrize("samples", [1, 2, 129, 4097])
    def test_conjugated_rank_two_one_loops(self, rng, samples):
        times, hs = conjugated_loop(rng, max(samples, 2), windings=-2)
        self.assert_equal_to_the_legacy(times[:samples], instantaneous_spectra(hs[:samples]))

    @pytest.mark.parametrize(
        "ranks, samples",
        [([1, 1], 65), ([2], 33), ([2, 1], 97), ([2, 1, 1], 129), ([2, 2], 129), ([3, 2], 97), ([1, 2, 2], 161),
         ([1, 1, 1, 1, 1], 97), ([4, 1], 2)],
    )
    def test_crossing_families(self, rng, ranks, samples):
        times = np.linspace(0.0, 1.0, samples)
        energies = np.linspace(-1.0, 1.0, len(ranks))
        slopes = -np.sqrt(7.0) * energies * (1.0 + 0.3 * np.arange(len(ranks)))  # every pair crosses, one at a time
        g = random_hermitian(sum(ranks), rng, scale=0.5)
        hs, _, _ = rotating_family(sum(ranks), ranks, energies, slopes, g, times)
        order = self.assert_equal_to_the_legacy(times, instantaneous_spectra(hs))
        if len(ranks) > 1 and samples > 2:
            assert (order != order[0]).any()

    @pytest.mark.parametrize(
        "sequence",
        [
            [TWO_PAIRS] * 2 + [(E4[:, :2], E4[:, 2], E4[:, 3])],
            [tuple(E4.T)] * 3 + [tuple(HADAMARD.T)],
            [(np.eye(3)[:, :2], np.eye(3)[:, 2])] * 2 + [(np.eye(3)[:, 0], np.eye(3)[:, 1:])],
            [TWO_PAIRS] * 2 + [(E4[:, [0, 2]], E4[:, [1, 3]])],
            [TWO_PAIRS] * 2 + [(E4[:, [0, 2]], E4[:, [1, 3]]), (E4[:, :2], E4[:, 2], E4[:, 3])],
        ],
        ids=["level_count", "overlap", "rank_change", "rank_loss", "rank_loss_before_level_count"],
    )
    def test_failures(self, sequence):
        stack, times = spectra_of(*sequence), np.arange(len(sequence), dtype=float)
        with pytest.raises(SubspaceTrackingFailure) as expected:
            legacy_track_levels(times, stack)
        with pytest.raises(SubspaceTrackingFailure) as err:
            track_levels(times, stack)
        assert str(err.value) == str(expected.value)
