from __future__ import annotations

import math
import warnings
from array import array

import numpy as np
import pytest
import reference_embeddings as reference

from sasv.core import (DataError, EmbeddingStore, NumericError, Protocol, Trial,
                       TrialLabel, check_protocol_ids, cosine, cosine_rows,
                       length_normalize, length_normalize_rows, load_embeddings,
                       load_protocol, save_embeddings, save_protocol, target_mask)


def test_trial_label_parse_and_class_index():
    assert TrialLabel.parse("target") is TrialLabel.TARGET
    assert TrialLabel.parse("  SPOOF ") is TrialLabel.SPOOF
    labels = [TrialLabel.SPOOF, TrialLabel.TARGET, TrialLabel.NONTARGET]
    assert target_mask(labels, "dev").tolist() == [False, True, False]
    for one_kind in ([TrialLabel.TARGET], labels[::2], []):
        with pytest.raises(DataError, match="^dev needs at least one target and one "
                                            "nontarget/spoof trial$"):
            target_mask(one_kind, "dev")
    assert str(TrialLabel.NONTARGET) == "nontarget"


def test_trial_label_rejects_unknown():
    with pytest.raises(DataError, match="bonafide"):
        TrialLabel.parse("bonafide")


def test_cosine_known_value():
    # dot([1,0],[1,1]) / (1 * sqrt(2))
    assert cosine([1.0, 0.0], [1.0, 1.0]) == 0.7071067811865475
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([2.0, 0.0], [-3.0, 0.0]) == -1.0


def test_cosine_clamped_to_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=8)
        c = cosine(v, 3.5 * v)
        assert 1.0 - 1e-15 <= c <= 1.0
        c = cosine(v, -0.25 * v)
        assert -1.0 <= c <= -1.0 + 1e-15


def test_cosine_zero_norm_raises():
    with pytest.raises(NumericError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_rows_is_the_row_wise_cosine():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(40, 7)), rng.normal(size=(40, 7))
    rows = cosine_rows(a, b)
    assert rows.shape == (40,)
    for i in range(40):
        assert rows[i] == cosine(a[i], b[i])
        # an exactly rounded reference, to a few ulp of float64
        dot, na, nb = (math.fsum(x * y for x, y in zip(u, v))
                       for u, v in ((a[i], b[i]), (a[i], a[i]), (b[i], b[i])))
        assert abs(rows[i] - dot / math.sqrt(na * nb)) < 1e-15
    assert np.array_equal(cosine_rows(a[::3], b[::3]), rows[::3])
    # rows past the first block of 4096 get the same bits as scored alone
    long_a, long_b = np.tile(a, (103, 1)), np.tile(b, (103, 1))
    assert np.array_equal(cosine_rows(long_a, long_b), np.tile(rows, 103))
    with pytest.raises(NumericError):
        cosine_rows(np.ones((2, 3)), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="one shape"):
        cosine_rows(np.ones((5000, 3)), np.ones((4097, 3)))


def test_cosine_rows_survive_overflow_and_underflow():
    # the plain squared norms of these finite, non-zero rows overflow to inf
    # or underflow to 0
    a = np.array([[1e200, 1e200], [1e200, 1e200], [1e-170, 1e-170], [1e-170, 0.0],
                  [-1e200, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 1.0], [1e200, 1e200], [1.0, 1.0], [0.0, 1.0],
                  [1e-200, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = cosine_rows(a, b)
    assert np.allclose(rows[:3], 1.0, rtol=0, atol=1e-15)
    assert rows[3] == 0.0 and rows[4] == -1.0
    # a row in range keeps the plain formula's bits
    assert rows[5] == 0.7071067811865475
    with pytest.raises(NumericError, match="zero-norm"):
        cosine_rows([[1e-170, 1e-170], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericError, match="non-finite"):
        cosine_rows([[math.inf, 1.0]], [[1.0, 1.0]])


def test_length_normalize_out_of_the_plain_norm_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=6)
        # a power of two scales exactly, so the unit vector keeps every bit
        for k in (700, -530, -1000):
            assert np.array_equal(length_normalize(v * 2.0**k), length_normalize(v))
    for big in ([1e200, 1e200], [1e-170, 1e-170]):
        assert np.allclose(length_normalize(big), [0.5**0.5] * 2, rtol=0, atol=1e-15)
    # an array is normalized as a whole, by one scale for all its rows
    m = np.array([[3e200, 0.0], [0.0, 4e200]])
    assert np.allclose(length_normalize(m), [[0.6, 0.0], [0.0, 0.8]], rtol=0, atol=1e-15)
    with pytest.raises(NumericError, match="non-finite"):
        length_normalize([math.inf, 1.0])


def test_length_normalize_rows_is_length_normalize_of_each_row():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 7, 16, 33, 160, 193):
        rows = rng.normal(size=(40, dim)) * rng.uniform(0.1, 10.0, size=(40, 1))
        # rows whose plain squared norms overflow or underflow
        rows[1] *= 2.0**700
        rows[2] *= 2.0**-700
        rows[3] = rng.uniform(0.5, 1.0, size=dim) * 1e200
        rows[4] = rng.uniform(0.5, 1.0, size=dim) * 1e-200
        rows[5, 0] = 1e-200  # one near-subnormal entry beside ordinary ones
        want = np.array([length_normalize(row) for row in rows])
        got = length_normalize_rows(rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), dim
        # a row keeps its bits whatever rows share its call
        assert np.array_equal(length_normalize_rows(rows[3:4]).view(np.uint64),
                              want[3:4].view(np.uint64))


@pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
def test_length_normalize_rows_rejects_zero_and_non_finite_rows(bad):
    rows = np.ones((3, 4))
    rows[1] = 0.0
    rows[1, 2] = bad
    with pytest.raises(NumericError) as rows_error:
        length_normalize_rows(rows)
    with pytest.raises(NumericError) as vector_error:
        length_normalize(rows[1])
    assert str(rows_error.value) == str(vector_error.value)
    assert "zero-norm or non-finite" in str(rows_error.value)


def test_length_normalize():
    v = length_normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8], rtol=0, atol=1e-16)
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-15)
    with pytest.raises(NumericError):
        length_normalize(np.zeros(4))


def test_embedding_store_validation():
    with pytest.raises(DataError):
        EmbeddingStore("asr", ["u1"], [[1.0, 2.0]])
    with pytest.raises(DataError, match="duplicate"):
        EmbeddingStore("sv", ["u1", "u1"], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataError, match="non-finite"):
        EmbeddingStore("sv", ["u1", "u3"], [[1.0, 2.0], [1.0, float("nan")]])
    store = EmbeddingStore("sv", ["u1"], [[1.0, 2.0]])
    with pytest.raises(DataError, match="u9"):
        store.vector("u9")
    assert "u1" in store and len(store) == 1 and store.dimension == 2


@pytest.mark.parametrize("utt_id", ["", "a\tb", "a\nb", "a\rb", "#c", " \t#c",
                                    "  #c", "\ud800"])
def test_embedding_store_rejects_ids_it_cannot_save(utt_id):
    with pytest.raises(DataError, match="embedding id") as exc:
        EmbeddingStore("sv", ["ok", utt_id], [[1.0], [2.0]])
    assert exc.value.row == 1


def test_embedding_store_holds_the_rows_the_reference_adds_one_by_one():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(37, 3))
    ids = [f"u{i}" for i in range(37)]
    one_by_one = reference.EmbeddingStore("cm")
    for utt_id, row in zip(ids, rows):
        one_by_one.add(utt_id, row)
    store = EmbeddingStore("cm", ids, rows)
    assert list(store.index.items()) == list(one_by_one.index.items())
    assert store.matrix.tobytes() == one_by_one.matrix.tobytes() == rows.tobytes()
    assert store.dimension == one_by_one.dimension == 3


def test_embedding_store_takes_over_an_owned_or_read_only_array():
    # an array that owns its memory becomes the matrix, read-only from then on
    owned = np.array([[1.0, 2.0], [3.0, 4.0]])
    store = EmbeddingStore("sv", ["a", "b"], owned)
    assert np.shares_memory(store.matrix, owned) and store.dimension == 2
    with pytest.raises(ValueError):
        owned[0, 0] = 9.0
    # so does a read-only view, such as the parsed values of a file
    frozen = np.frombuffer(array("d", [1.0, 2.0, 3.0, 4.0])).reshape(2, 2)
    frozen.flags.writeable = False
    assert np.shares_memory(EmbeddingStore("sv", ["a", "b"], frozen).matrix, frozen)
    # a writable view of another array, or a strided one, is copied
    rows = np.arange(8.0).reshape(4, 2)
    for view in (rows[:1], rows[::2], rows.T[:, :2]):
        copied = EmbeddingStore("sv", [f"u{i}" for i in range(len(view))], view)
        assert not np.shares_memory(copied.matrix, rows) and rows.flags.writeable
        assert copied.matrix.tobytes() == np.ascontiguousarray(view).tobytes()
    assert not EmbeddingStore("sv", ["a"], np.ones((1, 2), dtype=np.float32)).matrix.flags.writeable


def _add_error(utt_id, values, existing):
    """The message the reference `add` gives for one id and row, on a store holding `existing`."""
    store = reference.EmbeddingStore("sv")
    for old in existing:
        store.add(old, [0.5, 0.5])
    with pytest.raises(DataError) as exc:
        store.add(utt_id, values)
    return str(exc.value)


# (ids, rows, the first faulty id and row, the ids before it)
BAD_BATCHES = [
    (["a", "b", "a"], np.ones((3, 2)), "a", [1.0, 1.0], ["a", "b"]),   # a repeated id
    (["u0", "u0"], np.ones((2, 2)), "u0", [1.0, 1.0], ["u0"]),
    (["a", "x\ty"], np.ones((2, 2)), "x\ty", [1.0, 1.0], ["a"]),
    (["a", "x\ny"], np.ones((2, 2)), "x\ny", [1.0, 1.0], ["a"]),
    (["a", "\udc80"], np.ones((2, 2)), "\udc80", [1.0, 1.0], ["a"]),
    (["a", " #c"], np.ones((2, 2)), " #c", [1.0, 1.0], ["a"]),
    (["a", ""], np.ones((2, 2)), "", [1.0, 1.0], ["a"]),
    (["a", "b"], np.array([[1.0, 1.0], [1.0, np.nan]]), "b", [1.0, np.nan], ["a"]),
    (["a", "b"], np.array([[1.0, 1.0], [np.inf, 1.0]]), "b", [np.inf, 1.0], ["a"]),
    (["a", "b"], np.ones((2, 2, 1)), "a", [[1.0], [1.0]], []),    # a 3-D input
    (["a"], np.ones(2), "a", 1.0, []),                           # a 1-D input
    (["a", "b"], np.ones((2, 0)), "a", [], []),
    # the first fault in row order wins; in one row, an id fault before a value
    (["u0", "a", "u0"], np.array([[0.5, 0.5], [1.0, 1.0], [np.nan, 1.0]]), "u0",
     [np.nan, 1.0], ["u0", "a"]),
    (["a", "a"], np.array([[np.nan, 1.0], [1.0, 1.0]]), "a", [np.nan, 1.0], []),
    (["a"], np.array([[np.inf, 1.0, 1.0]]), "a", [np.inf, 1.0, 1.0], []),
]


@pytest.mark.parametrize("ids,rows,bad_id,bad_row,prior", BAD_BATCHES)
def test_add_rows_rejects_what_add_rejects_and_changes_nothing(ids, rows, bad_id, bad_row,
                                                               prior):
    """The constructor, given these rows in bulk, fails with the message the
    reference `add` gives the first faulty row after the rows before it. The
    error names that row (a fault of the input's shape names none), and
    `rows` stay writable and as they were."""
    before = rows.copy()
    with pytest.raises(DataError) as exc:
        EmbeddingStore("sv", ids, rows)
    assert str(exc.value) == _add_error(bad_id, bad_row, prior)
    assert exc.value.row == (len(prior) if rows.ndim == 2 and rows.shape[1] else None)
    assert rows.flags.writeable and rows.tobytes() == before.tobytes()


def test_embedding_store_needs_one_row_per_id():
    with pytest.raises(DataError, match="3 embedding rows for 2 ids"):
        EmbeddingStore("cm", ["a", "b"], np.ones((3, 2)))
    with pytest.raises(DataError, match="no embedding ids"):
        EmbeddingStore("cm", [], np.ones((0, 2)))


def test_embedding_store_is_a_dense_matrix():
    store = EmbeddingStore("sv", [f"u{i}" for i in range(40)],
                           [[float(i), -float(i)] for i in range(40)])
    assert store.matrix.shape == (40, 2)
    assert np.array_equal(store.matrix[:, 0], np.arange(40.0))
    assert store.index["u7"] == 7
    assert [utt for utt, _ in store.items()] == [f"u{i}" for i in range(40)]
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 1.0


def test_embedding_store_vectors_are_readonly():
    store = EmbeddingStore("cm", ["a"], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        store.vector("a")[0] = 99.0


def test_load_embeddings_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("# header comment\n\nu1\t1.0 2.0e-3 -4\n  # indented comment\nu2\t0.5 0.25 1e10\n")
    store = load_embeddings(str(path), "sv")
    assert len(store) == 2
    assert np.array_equal(store.vector("u1"), [1.0, 0.002, -4.0])


@pytest.mark.parametrize("line,fragment", [
    ("u1 1.0 2.0", "ID<TAB>values"),       # space instead of tab
    ("\t1.0 2.0", "empty embedding id"),
    ("u1\t", "no values"),
    ("u1\t1.0 oops", "bad float"),
    ("u1\t1.0 inf", "non-finite"),
    ("u1\t1.0", "'u1' has dimension 1, store expects 2"),
    ("u1\t1.0 2.0 inf", "non-finite"),   # a non-finite value before the width
    ("ok\t3.0 4.0", "duplicate embedding id 'ok'"),
])
def test_load_embeddings_errors_carry_line_number(tmp_path, line, fragment):
    path = tmp_path / "emb.tsv"
    path.write_text(f"# comment\nok\t1.0 2.0\n{line}\n")
    with pytest.raises(DataError, match=fragment) as err:
        load_embeddings(str(path), "sv")
    assert ":3:" in str(err.value)


def test_load_embeddings_width_fault_names_the_line_the_width_came_from(tmp_path):
    # a stray value on the first data line: the fault is found at the next one
    path = tmp_path / "scores.tsv"
    path.write_text("# scores\nu1\t0.5 0.7\nu2\t0.1\n")
    want = f"{path}:3: embedding 'u2' has dimension 1, store expects 2 (the width of line 2)"
    for load in (load_embeddings, reference.load_embeddings):
        with pytest.raises(DataError) as err:
            load(str(path), "cm")
        assert str(err.value) == want


def test_load_embeddings_empty_file(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("# nothing here\n")
    with pytest.raises(DataError, match="no embeddings"):
        load_embeddings(str(path), "sv")


def test_load_embeddings_refuses_a_bad_kind_before_reading_the_file(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1 1 2\n")  # no tab: a malformed line, were it parsed
    with pytest.raises(DataError, match="kind must be 'sv' or 'cm', got 'asr'"):
        load_embeddings(str(path), "asr")
    with pytest.raises(DataError, match="kind must be"):
        load_embeddings(str(tmp_path / "missing.tsv"), "asr")


def test_load_embeddings_reports_the_first_faulty_line(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0 2.0\nb\t1.0 oops\nc\t3.0\n")
    with pytest.raises(DataError, match=r"emb\.tsv:2: bad float"):
        load_embeddings(str(path), "sv")
    # a fault the store finds comes before a later line that does not parse
    path.write_text("a\t1.0 2.0\nb\tnan 2.0\nc\t1.0 oops\nd\t3.0\n")
    with pytest.raises(DataError, match=r"emb\.tsv:2: embedding 'b' contains a non-finite"):
        load_embeddings(str(path), "sv")


@pytest.mark.parametrize("second,fault", [
    ("a\t1 2 3", "duplicate embedding id 'a' in sv store"),   # not its width
    ("a\tnan 2", "embedding 'a' contains a non-finite value"),  # not its repeated id
])
def test_load_embeddings_reports_a_lines_first_fault_in_the_reference_order(tmp_path, second,
                                                                           fault):
    path = tmp_path / "emb.tsv"
    path.write_text(f"a\t1 2\n{second}\n")
    with pytest.raises(DataError) as exc:
        load_embeddings(str(path), "sv")
    assert str(exc.value) == f"{path}:2: {fault}"


def test_load_embeddings_names_the_line_of_a_zero_norm_row(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("# comment\nok\t1.0 2.0\nz\t0.0 -0.0\n")
    assert len(load_embeddings(str(path), "sv")) == 2
    with pytest.raises(NumericError, match=r"emb\.tsv:3: cannot length-normalize") as exc:
        load_embeddings(str(path), "sv", normalize=True)
    # the first faulty line decides between a zero norm and a repeated id,
    # and a row's zero norm comes before its own repeated id or width
    for text, error, lineno in [
            ("ok\t1.0 2.0\nz\t0.0 0.0\nok\t1.0 2.0\n", NumericError, 2),
            ("ok\t1.0 2.0\nok\t1.0 2.0\nz\t0.0 0.0\n", DataError, 2),
            ("ok\t1.0 2.0\nok\t0.0 0.0\n", NumericError, 2),
            ("ok\t1.0 2.0\nz\t0.0 0.0 0.0\n", NumericError, 2),
            ("ok\t1.0 2.0\nz\tinf 0.0\n", DataError, 2),
            ("ok\t1.0 2.0\nok\t1.0 2.0\nz\t0.0 0.0 0.0\n", DataError, 2)]:
        path.write_text(text)
        with pytest.raises(error, match=rf"emb\.tsv:{lineno}: "):
            load_embeddings(str(path), "sv", normalize=True)


def test_load_embeddings_normalizes_a_file_of_many_blocks_as_the_reference(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2500, 3)) * rng.uniform(1e-3, 1e3, size=(2500, 1))
    lines = [f"u{i}\t{' '.join(map(repr, row))}" for i, row in enumerate(rows.tolist())]
    path = tmp_path / "emb.tsv"
    path.write_text("\n".join(lines) + "\n")
    got = load_embeddings(str(path), "sv", normalize=True)
    want = reference.load_embeddings(str(path), "sv", normalize=True)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    # a zero-norm row in a later block, before or after a repeated id
    zero, repeat = "u2000\t0 0 0", "u3\t1 2 3"
    for at_zero, at_repeat, error, lineno in [(2000, 2100, NumericError, 2001),
                                              (2100, 1500, DataError, 1501)]:
        faulty = list(lines)
        faulty[at_zero], faulty[at_repeat] = zero, repeat
        path.write_text("\n".join(faulty) + "\n")
        with pytest.raises(error, match=rf"emb\.tsv:{lineno}: "):
            load_embeddings(str(path), "sv", normalize=True)


def test_load_embeddings_keeps_the_parsed_values_without_a_copy(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0 2.0\nb\t3.0 4.0\n")
    store = load_embeddings(str(path), "sv")
    # the matrix's first ndarray wraps the parse buffer; a copy would own its memory
    owner = store.matrix
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert not owner.flags.owndata and not store.matrix.flags.writeable
    assert store.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_embeddings_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    store = EmbeddingStore("cm", ["tiny", "huge", "norm"],
                           rng.normal(size=(3, 5)) * [[1e-300], [1e300], [1.0]])
    path = tmp_path / "emb.tsv"
    save_embeddings(store, str(path))
    loaded = load_embeddings(str(path), "cm")
    for utt_id, vec in store.items():
        assert np.array_equal(loaded.vector(utt_id), vec)


def test_load_embeddings_normalize_flag(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("u1\t3.0 4.0\n")
    store = load_embeddings(str(path), "sv", normalize=True)
    assert np.allclose(store.vector("u1"), [0.6, 0.8], rtol=0, atol=1e-16)


def test_load_protocol_and_counts(tmp_path):
    path = tmp_path / "proto.tsv"
    path.write_text("# trials\ne1\tt1\ttarget\ne1\tt2\tnontarget\ne1\tt3\tspoof\ne2\tt1\ttarget\n")
    protocol = load_protocol(str(path), "demo")
    assert protocol.name == "demo"
    assert len(protocol) == 4
    counts = protocol.counts()
    assert counts[TrialLabel.TARGET] == 2
    assert counts[TrialLabel.NONTARGET] == 1
    assert counts[TrialLabel.SPOOF] == 1
    assert protocol.trials[0] == Trial("e1", "t1", TrialLabel.TARGET)


@pytest.mark.parametrize("line,fragment", [
    ("e1 t1 target", "ENROLL_ID"),
    ("e1\tt1", "ENROLL_ID"),
    ("\tt1\ttarget", "empty trial id"),
    ("e1\tt1\tgenuine", "unknown trial label"),
])
def test_load_protocol_errors_carry_line_number(tmp_path, line, fragment):
    path = tmp_path / "proto.tsv"
    path.write_text(f"e0\tt0\ttarget\n{line}\n")
    with pytest.raises(DataError, match=fragment) as err:
        load_protocol(str(path))
    assert ":2:" in str(err.value)


def test_load_protocol_empty(tmp_path):
    path = tmp_path / "proto.tsv"
    path.write_text("\n# only comments\n")
    with pytest.raises(DataError, match="empty protocol"):
        load_protocol(str(path))


def test_protocol_round_trip(tmp_path):
    trials = [Trial("e1", "t1", TrialLabel.TARGET),
              Trial("e2", "t9", TrialLabel.SPOOF)]
    path = tmp_path / "proto.tsv"
    save_protocol(Protocol(trials), str(path))
    assert load_protocol(str(path)).trials == trials


def test_check_protocol_ids():
    sv = EmbeddingStore("sv", ["e1", "t1"], [[1.0, 0.0], [0.0, 1.0]])
    cm = EmbeddingStore("cm", ["t1"], [[1.0]])
    good = Protocol([Trial("e1", "t1", TrialLabel.TARGET)])
    rows = check_protocol_ids(good, sv, cm)
    assert (rows.enroll.tolist(), rows.test.tolist(), rows.test_cm.tolist()) == ([0], [1], [0])
    assert check_protocol_ids(good, sv, None).test_cm is None

    missing_enroll = Protocol([Trial("eX", "t1", TrialLabel.TARGET)])
    with pytest.raises(DataError, match=r"trial 1: enroll id 'eX'"):
        check_protocol_ids(missing_enroll, sv, cm)
    missing_test = Protocol([Trial("e1", "t1", TrialLabel.TARGET),
                             Trial("e1", "tX", TrialLabel.SPOOF)])
    with pytest.raises(DataError, match=r"trial 2: test id 'tX'"):
        check_protocol_ids(missing_test, sv, cm)
    cm_only_missing = Protocol([Trial("e1", "e1", TrialLabel.TARGET)])
    with pytest.raises(DataError, match="cm store"):
        check_protocol_ids(cm_only_missing, sv, cm)
