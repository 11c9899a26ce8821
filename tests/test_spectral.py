import numpy as np
import pytest

from oracles import oracle_laplacian, oracle_laplacian_product, oracle_solve_eigenmap
from slemap import laplacian
from slemap.config import PipelineConfig
from slemap.dataset import Dataset
from slemap.errors import DimensionMismatch, NonFiniteValue, NonSymmetricInput, RankDeficient
from slemap.evaluation import normalize_corpus, prepare_dataset
from slemap.laplacian import (
    build_laplacian,
    d_orthonormalize,
    _deflate_constant,
    descend_eigenmap,
    objective_phi,
    phi_gradient,
    solve_eigenmap,
)
from slemap.similarity import SimilarityComputer, SimilarityMatrix
from slemap.synth import GeneratorSpec, generate_arrays


def random_similarity(rng, m):
    a = rng.random((m, m))
    s = (a + a.T) / 2.0
    np.fill_diagonal(s, 1.0)
    return s


def block_similarity(*sizes):
    m = sum(sizes)
    s = np.zeros((m, m))
    at = 0
    for size in sizes:
        s[at:at + size, at:at + size] = 1.0
        at += size
    return s


def repeated_rows(s, idx):
    """The similarity of the documents of ``s`` listed in ``idx``, repeats included."""
    return np.ascontiguousarray(s[np.ix_(idx, idx)])


def synth_similarity(m, clusters, seed=0):
    spec = GeneratorSpec(m=m, numeric_dim=3, clusters=clusters, text_weight=0.5, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=seed)
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    return prepare_dataset(ds, PipelineConfig(), True).similarity.values


# similarity matrices with many repeated rows, as (id, maker) pairs
DUPLICATE_HEAVY = [
    ("random-repeats", lambda: repeated_rows(random_similarity(np.random.default_rng(12), 12),
                                             np.random.default_rng(13).integers(0, 12, size=30))),
    ("graded-repeats", lambda: repeated_rows(random_similarity(np.random.default_rng(14), 20),
                                             np.repeat(np.arange(20), np.arange(20) % 4 + 1))),
    # weak coupling, constant between two blocks, makes the graph connected
    ("blocks", lambda: block_similarity(3, 1, 4, 2, 2) + 0.05 * repeated_rows(
        random_similarity(np.random.default_rng(15), 5), [0, 0, 0, 1, 2, 2, 2, 2, 3, 3, 4, 4])),
    ("synth-200x4", lambda: synth_similarity(200, 4)),
]
duplicate_heavy = pytest.mark.parametrize(
    "make", [make for _, make in DUPLICATE_HEAVY], ids=[name for name, _ in DUPLICATE_HEAVY])


def reaches_inside_groups(lap, x) -> bool:
    """Whether a frame holds a column that varies inside a group of equal
    rows: an eigenvector of eigenvalue 1 that the quotient does not see."""
    return not np.array_equal(x, x[lap.firsts][lap.groups])


def projector(lap, x) -> np.ndarray:
    """X X^T D, the D-orthogonal projector onto a D-orthonormal frame's span."""
    return (x @ x.T) * lap.degrees[None, :]


def assert_solves_pencil(lap, x, dense=None) -> None:
    """X^T D X = I within 1e-12, and each column solves L x = lambda D x."""
    dense = lap.dense() if dense is None else dense
    dx = lap.degrees[:, None] * x
    assert np.max(np.abs(x.T @ dx - np.eye(x.shape[1]))) <= 1e-12
    lx = dense @ x
    residual = lx - dx * np.einsum("ij,ij->j", x, lx)
    assert np.max(np.abs(residual)) <= 1e-12 * np.abs(dense).max()


def assert_matches_oracle(lap, got, want, dense=None) -> None:
    """A frame inside the quotient is the every-row solve's within 1e-12.
    One that reaches the eigenvalue-1 vectors inside groups, a degenerate
    eigenspace whose basis each solve picks its own way, spans the same
    space, solves the pencil and has the same eigenvalue column by column."""
    if reaches_inside_groups(lap, got):
        dense = lap.dense() if dense is None else dense
        assert_solves_pencil(lap, got, dense)
        assert np.max(np.abs(projector(lap, got) - projector(lap, want))) <= 1e-10
        eigenvalues = [np.einsum("ij,ij->j", x, dense @ x) for x in (got, want)]
        assert np.max(np.abs(eigenvalues[0] - eigenvalues[1])) <= 1e-12
    else:
        assert np.max(np.abs(got - want)) <= 1e-12
        gram = got.T @ (lap.degrees[:, None] * got)
        assert np.max(np.abs(gram - np.eye(got.shape[1]))) <= 1e-8


@pytest.fixture(params=["lapack", "eigh"])
def solver(request, monkeypatch):
    """Each solve through numpy's LAPACK and, with ``_lapack`` patched to
    None, through ``np.linalg.eigh``; returns the list of (size, count)
    of each ``_partial_eigh`` call."""
    if request.param == "eigh":
        monkeypatch.setattr(laplacian, "_lapack", lambda: None)
    calls, real = [], laplacian._partial_eigh

    def counted(a, count):
        calls.append((a.shape[0], count))
        return real(a, count)
    monkeypatch.setattr(laplacian, "_partial_eigh", counted)
    return calls


class TestBuildLaplacian:
    def test_two_node(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(lap.degrees, [2.0, 2.0])
        assert np.array_equal(lap.dense(), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_identity_similarity(self):
        lap = build_laplacian(np.eye(3))
        assert np.array_equal(lap.dense(), np.zeros((3, 3)))
        assert np.allclose(lap.degrees, np.ones(3))

    def test_row_sums_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 12))
            assert np.max(np.abs(lap.dense().sum(axis=1))) <= 1e-10

    def test_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 15))
            assert np.linalg.eigvalsh(lap.dense()).min() >= -1e-10

    def test_quadratic_form_nonneg(self):
        rng = np.random.default_rng(8)
        lap = build_laplacian(random_similarity(rng, 10))
        for _ in range(20):
            v = rng.standard_normal(10)
            assert v @ lap.dense() @ v >= -1e-10 * (v @ v)

    def test_zero_degree_regularized(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 1.0
        lap = build_laplacian(s)
        assert lap.degrees[2] == 1e-8

    def test_rejects_asymmetric(self):
        s = np.eye(3)
        s[0, 1] = 1e-6
        with pytest.raises(NonSymmetricInput):
            build_laplacian(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, bad):
        s = random_similarity(np.random.default_rng(3), 4)
        s[0, 1] = s[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            build_laplacian(s)

    def test_groups_equal_rows(self):
        s = repeated_rows(random_similarity(np.random.default_rng(4), 5), [3, 0, 3, 1, 0, 3])
        lap = build_laplacian(s)
        assert lap.groups.tolist() == [0, 1, 0, 2, 1, 0]
        assert lap.firsts.tolist() == [0, 1, 3]

    def test_rows_one_ulp_apart_not_merged(self):
        s = repeated_rows(random_similarity(np.random.default_rng(5), 6), [0, 1, 2, 3, 4, 5, 0])
        s[6, 3] = s[3, 6] = np.nextafter(s[6, 3], 2.0)
        lap = build_laplacian(s)
        assert lap.firsts.tolist() == list(range(7))
        assert solve_eigenmap(lap, 3).tobytes() == oracle_solve_eigenmap(lap, 3).tobytes()

    def test_zero_degree_and_inexactly_symmetric_rows_not_grouped(self):
        s = np.zeros((5, 5))
        s[:2, :2] = 1.0
        assert build_laplacian(s).firsts.tolist() == [0, 2, 3, 4]
        # rows 0 and 3 stay equal, but their columns differ in row 1
        s = repeated_rows(random_similarity(np.random.default_rng(6), 3), [0, 1, 2, 0])
        s[1, 0] += 1e-14
        assert build_laplacian(s).firsts.tolist() == [0, 1, 2, 3]



def assert_fields_equal(lap, want: dict) -> None:
    for name, array in want.items():
        got = getattr(lap, name)
        assert got.dtype == array.dtype and got.shape == array.shape, name
        assert got.tobytes() == array.tobytes(), name


def key_matrix(block, keys) -> SimilarityMatrix:
    keys = np.asarray(keys, dtype=np.intp)
    return SimilarityMatrix(np.asarray(block, dtype=float), keys,
                            tuple(str(i) for i in range(keys.size)))


def text_matrix() -> SimilarityMatrix:
    """A generated corpus with blank, whitespace-only and punctuation-only
    texts (one blank key), duplicated texts and a text unrelated to all."""
    spec = GeneratorSpec(m=60, numeric_dim=3, clusters=4, text_weight=0.7, noise=0.05)
    ids, _, _, texts, _ = generate_arrays(spec, seed=3)
    texts = list(texts)
    texts[2], texts[9], texts[30] = "", "   ", ", ."
    texts[5] = texts[6] = texts[21]
    texts[44] = "qxqxqxqxq zzzzyyyyzzz"
    cfg = PipelineConfig()
    return SimilarityComputer().matrix(normalize_corpus(ids, texts, cfg))


class TestKeyForm:
    """build_laplacian over the block of distinct keys equals the
    construction over every row of the expanded matrix, field by field."""

    def test_text_corpus_and_its_folds(self):
        sm = text_matrix()
        s = sm.values
        assert np.count_nonzero(sm.block.diagonal() == 0.0) == 1
        assert sm.block.shape[0] < sm.m
        lap = build_laplacian(sm)
        assert_fields_equal(lap, oracle_laplacian(s))
        assert_fields_equal(build_laplacian(s), oracle_laplacian(s))
        # each blank record is a group of its own, and scores only itself
        for i in (2, 9, 30):
            assert np.count_nonzero(lap.groups == lap.groups[i]) == 1
            assert lap.raw_degrees[i] == 1.0
        assert lap.groups[5] == lap.groups[6] == lap.groups[21]
        assert lap.raw_degrees[44] == 1.0
        rng = np.random.default_rng(0)
        for _ in range(4):
            rows = np.sort(rng.choice(sm.m, size=45, replace=False))
            sub = sm.restrict(rows)
            assert sub.values.tobytes() == s[np.ix_(rows, rows)].tobytes()
            assert_fields_equal(build_laplacian(sub), oracle_laplacian(sub.values))

    def test_restrict_to_every_record_in_order_is_the_matrix(self):
        sm = text_matrix()
        assert sm.restrict(np.arange(sm.m)) is sm
        for rows in (np.arange(sm.m - 1), np.arange(sm.m)[::-1]):
            sub = sm.restrict(rows)
            assert sub is not sm and not np.shares_memory(sub.block, sm.block)
            assert sub.values.tobytes() == sm.values[np.ix_(rows, rows)].tobytes()

    def test_distinct_keys_with_equal_rows_share_a_group(self):
        block = [[1.0, 1.0, 0.3, 0.2],
                 [1.0, 1.0, 0.3, 0.2],
                 [0.3, 0.3, 1.0, 0.5],
                 [0.2, 0.2, 0.5, 1.0]]
        sm = key_matrix(block, [1, 0, 2, 1, 3, 0, 2])
        lap = build_laplacian(sm)
        assert lap.groups.tolist() == [0, 0, 1, 0, 2, 0, 1]
        assert_fields_equal(lap, oracle_laplacian(sm.values))

    def test_inexactly_symmetric_block_groups_nothing(self):
        block = np.array([[1.0, 0.4, 0.7], [0.4, 1.0, 0.1], [0.7, 0.1, 1.0]])
        block[0, 2] += 1e-14
        sm = key_matrix(block, [0, 1, 0, 2, 1, 2])
        lap = build_laplacian(sm)
        assert lap.firsts.tolist() == list(range(6))
        assert_fields_equal(lap, oracle_laplacian(sm.values))

    def test_row_sums_run_over_contiguous_rows(self, monkeypatch):
        """The sums are those of C-ordered rows.  An F-ordered gather of
        the same entries (``block[keys][:, keys]``) sums them in another
        order and rounds differently, which this matrix shows."""
        rng = np.random.default_rng(20)
        a = rng.random((40, 40))
        block = (a + a.T) / 2.0
        np.fill_diagonal(block, 1.0)
        keys = rng.integers(0, 40, size=300)
        keys[:40] = np.arange(40)
        sm = key_matrix(block, keys)
        s = sm.values
        strided = block[keys][:, keys]
        assert not strided.flags.c_contiguous
        assert (strided.sum(axis=1) != s.sum(axis=1)).any()
        for budget in (laplacian._GATHER_BYTES, 8 * 300 * 7, 1):
            monkeypatch.setattr(laplacian, "_GATHER_BYTES", budget)
            assert build_laplacian(sm).raw_degrees.tobytes() == s.sum(axis=1).tobytes()
        assert_fields_equal(build_laplacian(sm), oracle_laplacian(s))

    def test_rows_grouped_in_chunks(self, monkeypatch):
        """Equal rows are found a chunk of sorted rows at a time, whatever
        the chunk size, with -0.0 and 0.0 told apart as bytes."""
        rng = np.random.default_rng(21)
        block = random_similarity(rng, 30)
        block[:, :5] = block[:5, :] = 0.0
        block[:5, :5] = 1.0
        block = repeated_rows(block, np.repeat(np.arange(30), 2))
        # rows 0 and 1 are copies; a -0.0 in row 0 and column 0 parts them
        block[0, 20] = block[20, 0] = -0.0
        want = oracle_laplacian(block)
        assert want["groups"][0] != want["groups"][1]
        for budget in (laplacian._GATHER_BYTES, 8 * 60 * 3, 1):
            monkeypatch.setattr(laplacian, "_GATHER_BYTES", budget)
            lap = build_laplacian(block)
            assert lap.firsts.size < lap.m
            assert_fields_equal(lap, want)


class TestObjective:
    def test_constant_rows(self):
        rng = np.random.default_rng(2)
        lap = build_laplacian(random_similarity(rng, 8))
        x = np.tile(rng.standard_normal(3), (8, 1))
        assert abs(objective_phi(x, lap)) <= 1e-10

    def test_hand_example(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        x = np.array([[0.0], [1.0]])
        assert objective_phi(x, lap) == pytest.approx(1.0, abs=1e-14)

    def test_matches_pairwise_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m, dims = 9, 3
            s = random_similarity(rng, m)
            lap = build_laplacian(s)
            x = rng.standard_normal((m, dims))
            brute = 0.0
            for i in range(m):
                for j in range(m):
                    brute += np.sum((x[i] - x[j]) ** 2) * s[i, j]
            phi = objective_phi(x, lap)
            assert abs(phi - brute / 2.0) <= 1e-8 * max(1.0, abs(phi))

    def test_dimension_mismatch(self):
        lap = build_laplacian(np.eye(3))
        with pytest.raises(DimensionMismatch):
            objective_phi(np.zeros((4, 2)), lap)


class TestGradient:
    def test_zero_embedding(self):
        rng = np.random.default_rng(4)
        lap = build_laplacian(random_similarity(rng, 6))
        assert np.array_equal(phi_gradient(np.zeros((6, 2)), lap), np.zeros((6, 2)))

    def test_zero_laplacian(self):
        lap = build_laplacian(np.eye(5))
        x = np.random.default_rng(5).standard_normal((5, 2))
        assert np.allclose(phi_gradient(x, lap), 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m, dims = 7, 2
            lap = build_laplacian(random_similarity(rng, m))
            x = rng.standard_normal((m, dims))
            grad = phi_gradient(x, lap)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in range(m):
                for j in range(dims):
                    xp = x.copy(); xp[i, j] += h
                    xm = x.copy(); xm[i, j] -= h
                    fd[i, j] = (objective_phi(xp, lap) - objective_phi(xm, lap)) / (2 * h)
            denom = max(np.abs(grad).max(), 1e-12)
            assert np.abs(grad - fd).max() / denom < 1e-5


class TestSolveEigenmap:
    def test_two_node_closed_form(self):
        lap = build_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        emb = solve_eigenmap(lap, 1)
        # lambda = 1 eigenvector of Lx = lambda Dx, D-normalized, positive sign
        assert np.allclose(emb, [[0.5], [-0.5]], atol=1e-12)
        assert objective_phi(emb, lap) == pytest.approx(1.0, abs=1e-12)

    def test_d_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lap = build_laplacian(random_similarity(rng, 14))
            emb = solve_eigenmap(lap, 4)
            gram = emb.T @ (lap.degrees[:, None] * emb)
            assert np.linalg.norm(gram - np.eye(4)) <= 1e-8

    def test_disconnected_components(self):
        # two components (two ~0 eigenvalues), random weights inside each so
        # the rest of the spectrum is simple
        rng = np.random.default_rng(20)
        s = np.zeros((9, 9))
        s[:4, :4] = random_similarity(rng, 4) * 0.5 + 0.5
        s[4:, 4:] = random_similarity(rng, 5) * 0.5 + 0.5
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        lap = build_laplacian(s)
        emb = solve_eigenmap(lap, 2)
        assert np.all(np.isfinite(emb))
        gram = emb.T @ (lap.degrees[:, None] * emb)
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-8
        # the leading direction is the near-null component contrast
        assert objective_phi(emb[:, :1], lap) <= 1e-6

    def test_beats_random_frames(self):
        rng = np.random.default_rng(9)
        lap = build_laplacian(random_similarity(rng, 12))
        emb = solve_eigenmap(lap, 3)
        phi_star = objective_phi(emb, lap)
        for _ in range(25):
            y = rng.standard_normal((12, 3))
            y = _deflate_constant(y, lap.degrees)
            y = d_orthonormalize(y, lap.degrees[:, None] * y)
            assert phi_star <= objective_phi(y, lap) + 1e-10

    def test_requested_dims_out_of_range(self):
        lap = build_laplacian(np.eye(4) * 0 + random_similarity(np.random.default_rng(0), 4))
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 4)

    def test_degenerate_cut_detected(self):
        # three identical components: two exactly-degenerate non-trivial
        # null vectors, so a 1-dim request is ill-posed
        lap = build_laplacian(block_similarity(2, 2, 2))
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 1)

    def test_widths_one_solve_is_each_width_bitwise(self):
        lap = build_laplacian(random_similarity(np.random.default_rng(11), 14))
        frame = solve_eigenmap(lap, [2, 6, 3])
        assert frame.shape == (14, 6)
        for w in (2, 3, 6):
            assert frame[:, :w].copy().tobytes() == solve_eigenmap(lap, w).tobytes()

    def test_widths_each_checked(self):
        lap = build_laplacian(block_similarity(2, 2, 2))
        # width 1 cuts the degenerate null pair even when a wider width is fine
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, [2, 1])
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, (2, 6))

    def test_degenerate_cut_names_the_widest_narrower_width(self):
        # three identical components: non-trivial eigenvalues 0, 0, 1, 1, 1
        lap = build_laplacian(block_similarity(2, 2, 2))
        with pytest.raises(RankDeficient, match="no narrower width avoids cutting one"):
            solve_eigenmap(lap, 1)
        for dims in (3, 4, [2, 4]):
            with pytest.raises(RankDeficient, match="dims=2 is the widest width below it"):
                solve_eigenmap(lap, dims)
        assert solve_eigenmap(lap, 2).shape == (6, 2)

    def test_cut_into_the_ones_names_the_vectors_inside_groups(self):
        """A cut cluster that holds the eigenvalues inside groups says how
        many of its eigenvectors only separate records with equal rows; a
        cut elsewhere does not."""
        inside = "{} of its eigenvectors only separate records with identical similarity rows"
        lap = build_laplacian(DUPLICATE_HEAVY[0][1]())
        with pytest.raises(RankDeficient, match=inside.format(20)):
            solve_eigenmap(lap, 15)
        lap = build_laplacian(block_similarity(2, 2, 2))
        for dims in (3, 4):
            with pytest.raises(RankDeficient, match=inside.format(3)):
                solve_eigenmap(lap, dims)
        with pytest.raises(RankDeficient) as caught:
            solve_eigenmap(lap, 1)
        assert "only separate" not in str(caught.value)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(10)
        s = random_similarity(rng, 10)
        a = solve_eigenmap(build_laplacian(s), 3)
        b = solve_eigenmap(build_laplacian(s.copy()), 3)
        assert np.array_equal(a, b)


class TestQuotientSolve:
    """solve_eigenmap over groups of equal rows against the solve over every row."""

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_free_is_oracle_bitwise(self, seed):
        lap = build_laplacian(random_similarity(np.random.default_rng(seed), 16))
        assert lap.firsts.size == lap.m
        for dims in (1, 4, [2, 7, 5], lap.m - 1):
            assert solve_eigenmap(lap, dims).tobytes() == oracle_solve_eigenmap(lap, dims).tobytes()

    @pytest.mark.parametrize("budget", [8 * 16 * 3, 1])
    def test_symmetrized_in_strips_bitwise(self, monkeypatch, budget):
        """The reduced matrix is symmetrized in place a strip of rows at a
        time, bitwise as ``A + A.T``."""
        lap = build_laplacian(random_similarity(np.random.default_rng(5), 16))
        monkeypatch.setattr(laplacian, "_GATHER_BYTES", budget)
        for dims in (1, 4, lap.m - 1):
            assert solve_eigenmap(lap, dims).tobytes() == oracle_solve_eigenmap(lap, dims).tobytes()

    @duplicate_heavy
    def test_duplicate_heavy_matches_oracle(self, make):
        """Every width raises exactly where the solve over every row raises,
        and every other frame matches that solve's (``assert_matches_oracle``)."""
        lap = build_laplacian(make())
        m, u = lap.m, lap.firsts.size
        assert u < m
        dense, reached = lap.dense(), 0
        for w in range(1, m):
            try:
                want = oracle_solve_eigenmap(lap, w)
            except RankDeficient:
                with pytest.raises(RankDeficient):
                    solve_eigenmap(lap, w)
                continue
            got = solve_eigenmap(lap, w)
            reached += reaches_inside_groups(lap, got)
            assert_matches_oracle(lap, got, want, dense)
        # width m - 1 takes every eigenvector
        assert reached

    def test_width_into_the_ones_block_takes_the_vectors_inside_groups(self):
        # 10 distinct rows among 30: a frame of 28 columns holds the 20
        # eigenvectors inside groups, whose entries sum to 0 over each group
        lap = build_laplacian(repeated_rows(random_similarity(np.random.default_rng(12), 12),
                                            np.random.default_rng(13).integers(0, 12, size=30)))
        assert lap.firsts.size == 10
        for dims in (28, 29, [3, 28]):
            got = solve_eigenmap(lap, dims)
            assert_matches_oracle(lap, got, oracle_solve_eigenmap(lap, dims))
            inside = [j for j in range(got.shape[1])
                      if not np.array_equal(got[:, j], got[lap.firsts, j][lap.groups])]
            assert len(inside) == 20 and inside == list(range(inside[0], inside[0] + 20))
            sums = np.add.reduceat((lap.degrees[:, None] * got)[lap.order][:, inside],
                                   lap.starts)
            assert np.max(np.abs(sums)) <= 1e-12
        assert solve_eigenmap(lap, [3, 28])[:, :3].tobytes() == solve_eigenmap(lap, 3).tobytes()
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 15)
        # two repeated rows among 16: eight quotient eigenvalues lie below 1,
        # so widths 10 and 12, inside the quotient's count, take the two
        # eigenvalue-1 vectors, and width 9 cuts between them
        lap = build_laplacian(repeated_rows(random_similarity(np.random.default_rng(0), 14),
                                            [*range(14), 0, 1]))
        assert lap.firsts.size == 14
        for dims in (10, 12):
            got = solve_eigenmap(lap, dims)
            assert reaches_inside_groups(lap, got)
            assert_matches_oracle(lap, got, oracle_solve_eigenmap(lap, dims))
        with pytest.raises(RankDeficient):
            solve_eigenmap(lap, 9)

    @duplicate_heavy
    def test_one_quotient_solve_never_expands_l(self, monkeypatch, solver, make):
        """Every width makes one partial solve over the u groups, and none
        expands L to every row."""
        lap = build_laplacian(make())
        u = lap.firsts.size

        def expanded(self):
            raise AssertionError("L expanded to m x m")
        monkeypatch.setattr(laplacian.Laplacian, "dense", expanded)
        for w in range(1, lap.m):
            solver.clear()
            try:
                assert solve_eigenmap(lap, w).shape == (lap.m, w)
            except RankDeficient:
                pass
            assert solver == [(u, min(w, u - 1))]

    def test_every_row_identical(self, solver):
        """u = 1: no quotient pair, so the solve is asked for no vector; every
        narrower width cuts the m - 1 eigenvalues 1, and width m - 1 is the
        closed-form vectors inside the one group."""
        lap = build_laplacian(np.full((6, 6), 0.5))
        assert lap.firsts.size == 1
        for w in range(1, 5):
            with pytest.raises(RankDeficient, match="5 of its eigenvectors only separate"):
                solve_eigenmap(lap, w)
        x = solve_eigenmap(lap, 5)
        assert_solves_pencil(lap, x)
        assert np.max(np.abs(projector(lap, x) - projector(lap, oracle_solve_eigenmap(lap, 5)))
                      ) <= 1e-10
        assert solver and set(solver) == {(1, 0)}

    def test_one_repeated_row(self, solver):
        """m - u = 1: the one vector inside a group, e_4 - e_9 over
        sqrt(2 d_4), sits where eigenvalue 1 falls among the quotient's."""
        lap = build_laplacian(repeated_rows(random_similarity(np.random.default_rng(0), 9),
                                            [*range(9), 4]))
        assert lap.firsts.size == 9
        helmert = np.zeros(10)
        helmert[4], helmert[9] = 1.0, -1.0
        helmert /= np.sqrt(2.0 * lap.degrees[4])
        reached = 0
        for w in range(1, 10):
            try:
                want = oracle_solve_eigenmap(lap, w)
            except RankDeficient:
                with pytest.raises(RankDeficient):
                    solve_eigenmap(lap, w)
                continue
            got = solve_eigenmap(lap, w)
            assert_matches_oracle(lap, got, want)
            if reaches_inside_groups(lap, got):
                reached += 1
                assert sum(np.array_equal(got[:, j], helmert) for j in range(w)) == 1
        assert reached
        assert set(solver) == {(9, 8)} | {(9, w) for w in range(1, 9)}


class TestAgainstEigh:
    """solve_eigenmap against the oracle solved by ``np.linalg.eigh``, an
    independent check of the partial LAPACK solve."""

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_free(self, seed):
        lap = build_laplacian(random_similarity(np.random.default_rng(seed), 16))
        for dims in (1, 4, [2, 7, 5], lap.m - 1):
            want = oracle_solve_eigenmap(lap, dims, reference=True)
            assert np.max(np.abs(solve_eigenmap(lap, dims) - want)) <= 1e-12

    @duplicate_heavy
    def test_duplicate_heavy_inside_the_quotient(self, make):
        lap = build_laplacian(make())
        for w in range(1, lap.firsts.size):
            try:
                want = oracle_solve_eigenmap(lap, w, reference=True)
            except RankDeficient:
                continue
            assert np.max(np.abs(solve_eigenmap(lap, w) - want)) <= 1e-12, w


# symmetric matrices for the partial solve: (id, maker, dims)
SYMMETRIC = [
    ("random", lambda: random_similarity(np.random.default_rng(30), 24) - 0.5, 4),
    ("repeated-rows", lambda: repeated_rows(random_similarity(np.random.default_rng(31), 8),
                                            np.random.default_rng(32).integers(0, 8, size=20)), 3),
    # eigenvalue 4 four times and 0 twelve times
    ("degenerate", lambda: block_similarity(4, 4, 4, 4), 3),
]


class TestPartialEigh:
    """``_partial_eigh``: every eigenvalue, the lowest eigenvectors."""

    @pytest.mark.parametrize("make,dims", [(make, dims) for _, make, dims in SYMMETRIC],
                             ids=[name for name, _, _ in SYMMETRIC])
    def test_eigenpairs_and_prefixes(self, make, dims):
        a = make()
        scale = np.linalg.norm(a, 2)
        count = dims + 9
        w, v = laplacian._partial_eigh(a.copy(), count)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * scale
        assert v.shape == (a.shape[0], count)
        assert np.max(np.abs(a @ v - v * w[:count])) <= 1e-13 * scale
        assert np.max(np.abs(v.T @ v - np.eye(count))) <= 1e-13
        # back-transformed in blocks of 8 vectors: counts inside one block,
        # across blocks and up to the last, shorter block of every vector
        widest = laplacian._partial_eigh(a.copy(), a.shape[0] - 1)[1]
        for k in (1, dims, count):
            w_k, v_k = laplacian._partial_eigh(a.copy(), k)
            assert w_k.tobytes() == w.tobytes()
            assert (np.ascontiguousarray(v_k).tobytes()
                    == np.ascontiguousarray(widest[:, :k]).tobytes())

    @pytest.mark.parametrize("similarity,widths", [
        (lambda: random_similarity(np.random.default_rng(33), 14), (1, 4, 13)),
        (DUPLICATE_HEAVY[0][1], (3, 6, 28)),     # 10 groups: width 28 reaches inside them
        (lambda: block_similarity(2, 2, 2), (2, 5)),
    ], ids=["random", "repeated-rows", "degenerate"])
    def test_frames_solve_the_pencil(self, similarity, widths):
        lap = build_laplacian(similarity())
        dense = lap.dense()
        for dims in widths:
            x = solve_eigenmap(lap, dims)
            dx = lap.degrees[:, None] * x
            assert np.max(np.abs(x.T @ dx - np.eye(dims))) <= 1e-12
            lx = dense @ x
            residual = lx - dx * np.einsum("ij,ij->j", x, lx)
            assert np.max(np.abs(residual)) <= 1e-12 * np.abs(dense).max()


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices ``np.linalg.eigh`` is asked to solve."""
    calls, real = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestEighFallback:
    def test_without_lapack_frames_are_eighs(self, monkeypatch, eigh_calls):
        laps = [build_laplacian(random_similarity(np.random.default_rng(34), 14)),
                build_laplacian(DUPLICATE_HEAVY[0][1]())]
        # widths whose frames hold no degenerate cluster, so that they are unique
        widths = [(1, 4, 13), (3, 6)]
        want = [[solve_eigenmap(lap, w) for w in ws] for lap, ws in zip(laps, widths)]
        assert eigh_calls == []
        monkeypatch.setattr(laplacian, "_lapack", lambda: None)
        for lap, ws, frames in zip(laps, widths, want):
            for w, frame in zip(ws, frames):
                assert np.max(np.abs(solve_eigenmap(lap, w) - frame)) <= 1e-12
        assert len(eigh_calls) == 5

    def test_without_lapack_widths_stay_bitwise(self, monkeypatch, eigh_calls):
        monkeypatch.setattr(laplacian, "_lapack", lambda: None)
        TestSolveEigenmap().test_widths_one_solve_is_each_width_bitwise()
        assert eigh_calls

    @pytest.mark.skipif(laplacian._lapack() is None, reason="numpy's LAPACK is not bound")
    def test_inverse_iteration_failure_solves_the_tridiagonal(self, monkeypatch, eigh_calls):
        lap = build_laplacian(random_similarity(np.random.default_rng(35), 14))
        want = oracle_solve_eigenmap(lap, 4, reference=True)
        real = laplacian._lapack()

        def failing(*args):
            assert real.dstein(*args) == 0
            return 1    # INFO > 0: one vector did not converge
        monkeypatch.setattr(laplacian, "_lapack", lambda: real._replace(dstein=failing))
        eigh_calls.clear()
        got = solve_eigenmap(lap, 4)
        assert eigh_calls == [(14, 14)]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_binds_numpys_lapack():
    """Where numpy links the ILP64 scipy-openblas, as its 2.x wheels do, the
    partial solve must bind it and not fall back to ``np.linalg.eigh``."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if (lapack.get("name") != "scipy-openblas"
            or "USE64BITINT" not in lapack.get("openblas configuration", "")):
        pytest.skip("numpy does not link the ILP64 scipy-openblas")
    assert laplacian._lapack() is not None


class TestQuotientProduct:
    """L X over groups of equal rows against the product with the m x m L."""

    @duplicate_heavy
    def test_duplicate_heavy_matches_oracle(self, make):
        s = make()
        lap = build_laplacian(s)
        assert lap.firsts.size < lap.m
        x = np.random.default_rng(16).standard_normal((lap.m, 5))
        want = oracle_laplacian_product(s, x)
        for got in (lap.dot(x), phi_gradient(x, lap) / 2.0):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_free_is_oracle_bitwise(self, seed):
        s = random_similarity(np.random.default_rng(seed), 16)
        lap = build_laplacian(s)
        assert lap.firsts.size == lap.m
        x = np.random.default_rng(seed + 100).standard_normal((lap.m, 3))
        want = oracle_laplacian_product(s, x)
        assert lap.dot(x).tobytes() == want.tobytes()
        assert phi_gradient(x, lap).tobytes() == (2.0 * want).tobytes()

    @pytest.mark.parametrize("make", [
        *(make for _, make in DUPLICATE_HEAVY),
        lambda: random_similarity(np.random.default_rng(17), 9),
        lambda: np.eye(4),
    ], ids=[*(name for name, _ in DUPLICATE_HEAVY), "duplicate-free", "identity"])
    def test_dense_expansion_is_full_laplacian(self, make):
        # the matrix the every-row oracle solves
        s = make()
        assert np.array_equal(build_laplacian(s).dense(), np.diag(s.sum(1)) - s)


class TestDescend:
    def test_stationary_at_eigensolution(self):
        rng = np.random.default_rng(11)
        lap = build_laplacian(random_similarity(rng, 10))
        emb = solve_eigenmap(lap, 2)
        out = descend_eigenmap(lap, 2, emb, steps=5)
        assert abs(objective_phi(out, lap) - objective_phi(emb, lap)) < 1e-10
        assert np.abs(out - emb).max() < 1e-8

    def test_reaches_eigensolver_objective(self):
        rng = np.random.default_rng(12)
        lap = build_laplacian(random_similarity(rng, 20))
        target = objective_phi(solve_eigenmap(lap, 3), lap)
        init = rng.standard_normal((20, 3))
        out = descend_eigenmap(lap, 3, init, steps=5000)
        achieved = objective_phi(out, lap)
        assert achieved <= target * (1 + 1e-6) + 1e-12

    def test_zero_step_returns_orthonormalized_init(self):
        rng = np.random.default_rng(13)
        lap = build_laplacian(random_similarity(rng, 8))
        init = _deflate_constant(rng.standard_normal((8, 2)), lap.degrees)
        out = descend_eigenmap(lap, 2, init, steps=0)
        assert np.allclose(out, d_orthonormalize(init, lap.degrees[:, None] * init), atol=1e-12)

    def test_constraint_maintained(self):
        rng = np.random.default_rng(14)
        lap = build_laplacian(random_similarity(rng, 15))
        out = descend_eigenmap(lap, 3, rng.standard_normal((15, 3)), steps=200)
        gram = out.T @ (lap.degrees[:, None] * out)
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-8


class TestDOrthonormalize:
    def test_dependent_columns_rejected(self):
        rng = np.random.default_rng(21)
        lap = build_laplacian(random_similarity(rng, 8))
        col = rng.standard_normal(8)
        x = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficient):
            d_orthonormalize(x, lap.degrees[:, None] * x)

    def test_already_orthonormal_unchanged(self):
        rng = np.random.default_rng(22)
        lap = build_laplacian(random_similarity(rng, 9))
        emb = solve_eigenmap(lap, 3)
        out = d_orthonormalize(emb, lap.degrees[:, None] * emb)
        assert np.abs(out - emb).max() < 1e-12
