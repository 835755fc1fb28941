import pytest

from lrckit.formats import (
    FormatError,
    read_family,
    read_matrix,
    read_word,
    write_family,
    write_matrix,
    write_word,
)
from lrckit.linalg import detect_block_locality
from lrckit.lrc import build_parity_check
from lrckit.setfam import SetFamily


def test_family_round_trip(tmp_path):
    fam = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)))
    path = tmp_path / "fam.txt"
    write_family(path, fam)
    assert read_family(path) == fam
    # the format is stable: header then one line per set
    lines = path.read_text().splitlines()
    assert lines[0] == "13 4 2 2"
    assert lines[1] == "0 1 2 3 4"


def test_matrix_round_trip(tmp_path):
    fam = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)))
    pcm = build_parity_check(fam, 5)
    path = tmp_path / "h.txt"
    write_matrix(path, pcm.rows, 13)
    rows, q = read_matrix(path)
    assert q == 13
    assert rows == pcm.rows
    assert path.read_text().splitlines()[0] == "5 10 13"


def test_word_round_trip_with_erasures(tmp_path):
    path = tmp_path / "w.txt"
    word = [3, None, 0, 12, None]
    write_word(path, word, 13)
    got, q = read_word(path)
    assert q == 13 and got == word
    assert "?" in path.read_text()


@pytest.mark.parametrize(
    "content",
    [
        "",  # no header
        "13 4\n",  # truncated family header
        "13 4 2 1\n0 1 2 3\n",  # wrong set size
        "13 4 2 1\n0 1 2 3 13\n",  # element out of range
        "13 4 2 2\n0 1 2 3 4\n",  # fewer sets than promised
    ],
)
def test_family_reader_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FormatError):
        read_family(path)


@pytest.mark.parametrize(
    "content",
    [
        "2 2 13\n1 2\n",  # missing row
        "2 2 13\n1 2\n3 13\n",  # entry out of range
        "2 2 13\n1 2\n3\n",  # short row
        "0 0 13\n",  # no rows, no columns
        "0 3 13\n",  # no rows
        "2 0 13\n",  # no columns
    ],
)
def test_matrix_reader_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FormatError):
        read_matrix(path)


def test_word_reader_rejects_bad_symbols(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 13\n1 x 2\n")
    with pytest.raises(FormatError):
        read_word(path)
    path.write_text("3 13\n1 13 2\n")
    with pytest.raises(FormatError):
        read_word(path)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], []]])
def test_matrix_writer_refuses_a_ragged_matrix(tmp_path, rows):
    path = tmp_path / "H.txt"
    with pytest.raises(FormatError, match="ragged matrix"):
        write_matrix(path, rows, 13)
    assert not path.exists()


def test_detect_block_locality(singleton_code):
    _, pcm, params = singleton_code
    assert detect_block_locality(pcm.rows) == params.r
    # no indicator tiling: nothing to detect
    assert detect_block_locality(((1, 2), (3, 4))) is None
    # all-ones single block of width n means r = n-1
    assert detect_block_locality(((1, 1, 1), (0, 1, 2))) == 2
