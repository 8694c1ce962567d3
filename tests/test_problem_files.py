"""The streamed problem-file readers and writers: the old readers' results, in memory the size of the arrays.

The readers stream a file a chunk of whole lines at a time. On valid and
mutated quadratic and dataset files they must give `reference_math`'s
whole-text readers' arrays bit for bit, or raise the same ValueError, at any
chunk size. The memory guards bound what a read or a write holds at its
peak under tracemalloc.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_math
from fedmm import objectives
from fedmm.core import seeded_rng
from fedmm.objectives import (
    DomainAdaptDataset,
    QuadraticSaddleSpec,
    load_dataset,
    load_quadratic_specs,
    save_dataset,
    save_quadratic_specs,
)
from fedmm.problems import synthetic_quadratic_specs
from test_cli import _HEADER_TOKENS, _RECORD_TOKENS

# whitespace that ends no line, so a comment runs on over it
_SPACES = [" ", "\t", "  ", "\x1f", "\xa0", "\u3000"]
# every line boundary str.splitlines() knows, and CRLF
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_COMMENT_ENDS = ["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_COMMENT_TEXT = ["", " 1.0 2.0", "x", "#", " \x1f 3 \xa0 4", "0 1 0.5 0.5", "\t nan 2 2 2"]

_GAPS = st.one_of(
    st.sampled_from(_SPACES),
    st.sampled_from(_BREAKS),
    st.tuples(st.sampled_from(["#", " #"]), st.sampled_from(_COMMENT_TEXT), st.sampled_from(_COMMENT_ENDS)).map(
        "".join
    ),
)
# how a file ends: with or without a line end, or in a comment with none
_ENDS = st.sampled_from(["", "\n", "\r\n", " # trailing", "\n# last line\n", "\u2028"])


def _drawn_rng(draw):
    return seeded_rng(draw(st.integers(0, 2**32)))


@st.composite
def _quadratic_tokens(draw):
    """A valid quadratic instance file's tokens: N 1-3, d1 1-3, d2 1-3."""
    n, d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = _drawn_rng(draw)
    toks = [str(d1), str(d2), str(n)]
    for _ in range(n):
        A, M = rng.standard_normal((d1, d1)), rng.standard_normal((d2, d2))
        blocks = (
            A + A.T, rng.standard_normal((d1, d2)), M @ M.T + d2 * np.eye(d2),
            rng.standard_normal(d1), rng.standard_normal(d2),
        )
        toks += [repr(v) for block in blocks for v in block.ravel().tolist()]
    return toks


@st.composite
def _dataset_tokens(draw):
    """A valid dataset file's tokens: 3-8 records of 1-3 features, 1-3 classes."""
    d, n_classes, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(3, 8))
    rng = _drawn_rng(draw)
    toks = [str(d), str(n_classes), str(n)]
    for i in range(n):
        label = int(rng.integers(n_classes)) if i % 2 == 0 else -1
        toks += [str(i % 2), str(label)] + [repr(v) for v in rng.standard_normal(d).tolist()]
    return toks


@st.composite
def _files(draw, tokens):
    """A file's text: valid tokens with up to three replaced, extra or missing ones, in a drawn layout.

    Every gap between tokens, the header's included, is whitespace, a line
    boundary or a comment that a line boundary ends.
    """
    toks = draw(tokens)
    junk = st.one_of(_RECORD_TOKENS, _HEADER_TOKENS)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        # mostly same-count edits, so that most drawn files reach the parse and the checks
        edit = draw(st.sampled_from(["replace"] * 4 + ["extra", "missing", "cut"]))
        if edit == "extra":
            toks.insert(i, draw(junk))
        elif edit == "cut":
            del toks[i:]
        elif toks and edit == "replace":
            toks[min(i, len(toks) - 1)] = draw(junk)
        elif toks:
            del toks[min(i, len(toks) - 1)]
    gaps = draw(st.lists(_GAPS, min_size=len(toks) + 1, max_size=len(toks) + 1))
    return "".join(gap + tok for gap, tok in zip(gaps, toks)) + gaps[-1] + draw(_ENDS)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.writeable == want.flags.writeable and got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _same_blocks(got, want):
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        _same_array(g, w)


def _same_dataset(got, want):
    (ds, n_classes), (ref, ref_classes) = got, want
    assert n_classes == ref_classes
    for name in ("X", "y", "domain"):
        _same_array(getattr(ds, name), getattr(ref, name))


_READERS = {
    "quadratic": (_quadratic_tokens(), objectives._read_quadratic, reference_math.read_quadratic, _same_blocks),
    "dataset": (_dataset_tokens(), load_dataset, reference_math.load_dataset, _same_dataset),
}


class TestStreamedReadersEqualTheWholeTextReaders:
    @pytest.mark.parametrize("kind", sorted(_READERS))
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), crlf=st.booleans())
    def test_same_arrays_or_same_error(self, tmp_path_factory, kind, data, crlf):
        tokens, read, reference, same = _READERS[kind]
        text = data.draw(_files(tokens))
        if crlf:
            text = text.replace("\n", "\r\n")
        path = tmp_path_factory.mktemp(kind) / "problem.txt"
        path.write_bytes(text.encode())
        want = _outcome(reference, path)
        # chunks of a few characters cross every token, line, comment and record
        chunk = data.draw(st.sampled_from([1, 2, 3, 5, 16, objectives._CHUNK_CHARS]))
        with mock.patch.object(objectives, "_CHUNK_CHARS", chunk):
            got = _outcome(read, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            same(got, want)

    @pytest.mark.parametrize("kind", sorted(_READERS))
    @pytest.mark.parametrize(
        "head", ["1 1 1\n", "1 x 1\n", "0 1 1\n", "\n"], ids=["valid", "not_integer", "not_positive", "none"]
    )
    def test_a_byte_that_does_not_decode_fails_as_a_whole_file_read_does(self, tmp_path, kind, head):
        # the bad byte lies chunks after the header: its error and position are still the whole file's
        path = tmp_path / "bad_byte.txt"
        path.write_bytes(head.encode() + b"0.5 " * 10_000 + b"\xff\n")
        _, read, reference, _ = _READERS[kind]
        want = _outcome(reference, path)
        assert want.startswith("UnicodeDecodeError: ") and f"in position {len(head) + 40_000}:" in want
        assert _outcome(read, path) == want

    def test_a_count_the_file_cannot_hold_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge_header.txt"
        path.write_text("1000 1000 1000000\n1 2 3\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"huge_header.txt: expected 3002000000000 values, found 3"):
                load_quadratic_specs(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dataset(n: int, d: int) -> DomainAdaptDataset:
    rng = seeded_rng(3)
    domain = np.arange(n) % 2
    return DomainAdaptDataset(rng.standard_normal((n, d)), np.where(domain == 0, rng.integers(0, 2, n), -1), domain)


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """A 4000 x 16 dataset and its file (1.3 MB)."""
    ds = _dataset(4000, 16)
    path = tmp_path_factory.mktemp("memory") / "data.txt"
    save_dataset(path, ds, 2)
    return ds, path


class TestProblemFileMemory:
    def test_load_dataset_holds_about_the_features(self, dataset_file):
        ds, path = dataset_file
        peak = _traced_peak(load_dataset, path)
        bound = 2.5 * ds.X.nbytes + 500_000
        assert peak <= bound, f"load_dataset peaked at {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    def test_load_quadratic_specs_of_32_wide_clients_within_0_6_megabytes(self, tmp_path):
        path = tmp_path / "wide.txt"
        save_quadratic_specs(path, synthetic_quadratic_specs(32, 20, 10))
        peak = _traced_peak(load_quadratic_specs, path)
        assert peak <= 600_000, f"load_quadratic_specs peaked at {peak / 1e6:.2f} MB"

    def test_save_dataset_streams_within_half_a_megabyte(self, dataset_file, tmp_path):
        ds, _ = dataset_file
        path = tmp_path / "data.txt"
        peak = _traced_peak(save_dataset, path, ds, 2)
        assert path.stat().st_size > 1_000_000
        assert peak < 500_000, f"save_dataset peaked at {peak / 1e6:.2f} MB"

    def test_save_quadratic_specs_streams_within_half_a_megabyte(self, tmp_path):
        rng = seeded_rng(4)
        specs = [
            QuadraticSaddleSpec(*(rng.standard_normal(shape) for shape in ((20, 20), (20, 10), (10, 10), 20, 10)))
            for _ in range(100)
        ]
        path = tmp_path / "wide.txt"
        peak = _traced_peak(save_quadratic_specs, path, specs)
        assert path.stat().st_size > 1_000_000
        assert peak < 500_000, f"save_quadratic_specs peaked at {peak / 1e6:.2f} MB"
