import importlib
import inspect
import re
import sys
from pathlib import Path
from unittest import mock

import lrckit
from lrckit import cli, codec, formats, linalg, lrc, setfam

from conftest import SINGLETON_FAMILY


def test_every_public_name_resolves_once():
    assert len(set(lrckit.__all__)) == len(lrckit.__all__)
    missing = [name for name in lrckit.__all__ if not hasattr(lrckit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from lrckit import *", namespace)
    assert set(lrckit.__all__) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    # the README's library example as written, with the outputs its comments name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out.split() == ["5", "local", "True"]


def test_the_benchmark_tracer_still_finds_every_name_it_rebinds(monkeypatch):
    # perfbench/tracer.py looks up the names it traces when it is imported,
    # and binds the scan's and the greedy generator's arguments by name: a
    # name removed or renamed here would fail every benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracer = importlib.import_module("tracer")
        assert tracer.assert_untraced() == len(tracer.ORIGINALS)
    finally:
        for name in ("tracer", "spec"):
            sys.modules.pop(name, None)
    scan = inspect.signature(linalg.smallest_dependent_subset).bind(None, [], 0)
    assert {"columns", "max_size"} <= set(scan.arguments)
    greedy = inspect.signature(setfam.greedy_family).bind(13, 4, 2, 64, 0)
    assert "candidate_budget" in greedy.arguments


def test_the_distance_functions_reach_the_traced_scan_and_rank(monkeypatch, tmp_path, capsys):
    # the tracer counts per-layer work by rebinding these two names and reads
    # the scan's `columns`: the matrix functions, and `cli distance` through
    # them, must call the scan through the module, with n columns of one
    # entry per row; the witness caps its scan at the row count and the
    # parameter gate reads the family, so none of them reaches the rank
    fam = setfam.SetFamily(13, 4, 2, SINGLETON_FAMILY)
    matrix = tmp_path / "H.txt"
    formats.write_matrix(matrix, lrc.build_parity_check(fam, 5).rows, 13)
    scan, rank, seen = linalg.smallest_dependent_subset, linalg.rank, []

    def counted_scan(*args, **kwargs):
        seen.append(("scan", inspect.signature(scan).bind(*args, **kwargs).arguments["columns"]))
        return scan(*args, **kwargs)

    def counted_rank(*args, **kwargs):
        seen.append(("rank", None))
        return rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "smallest_dependent_subset", counted_scan)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    calls = {
        "verify": lambda pcm: lrc.verify_distance_at_least(pcm, 5),
        "witness": lrc.min_distance_witness,
        "params": lambda pcm: lrc.code_params_from_family(fam, 5, pcm),
        "cli --d": lambda pcm: cli.main(["distance", "--in", str(matrix), "--d", "5"]),
        "cli": lambda pcm: cli.main(["distance", "--in", str(matrix)]),
    }
    reached = {}
    for name, call in calls.items():
        seen.clear()
        pcm = lrc.build_parity_check(fam, 5)
        call(pcm)
        reached[name] = {layer for layer, _ in seen}
        for layer, columns in seen:
            assert layer == "rank" or (len(columns) == pcm.n and {len(c) for c in columns} == {len(pcm.rows)})
    assert reached == {"verify": {"scan"}, "witness": {"scan"}, "params": set(),
                       "cli --d": {"scan"}, "cli": {"scan"}}
    assert capsys.readouterr().out.splitlines() == [
        "distance >= 5: pass", "minimum distance: 5", "witness columns: [0, 1, 2, 3, 4]"]


def test_every_sum_of_products_is_the_one_field_kernel():
    # the scan's matrix-vector products (in the witness's walk of size d:
    # the verdict below d takes none), encode and syndrome each reach
    # GF.dot_array, and no source file multiplies and then sums apart
    fam = setfam.SetFamily(13, 4, 2, SINGLETON_FAMILY)
    pcm = lrc.build_parity_check(fam, 5)
    field = pcm.field
    gen = codec.generator_from_parity(field, pcm.rows)
    calls = {
        "scan": lambda: lrc.min_distance_witness(pcm),
        "encode": lambda: codec.encode(field, gen, [1] * len(gen)),
        "syndrome": lambda: codec.syndrome(field, pcm.rows, [0] * pcm.n),
    }
    for name, call in calls.items():
        with mock.patch.object(field, "dot_array", wraps=field.dot_array) as dot:
            call()
        assert dot.call_count >= 1, name
    src = Path(lrckit.__file__).resolve().parent
    split = [p.name for p in sorted(src.glob("*.py")) if re.search(r"sum_array\(\s*\S*mul_array\(", p.read_text())]
    assert split == []


def test_every_elimination_is_the_one_rref():
    # rank, nullspace, solve, the generator and an erasure decode each
    # reduce H's own rows (some columns, or a right-hand side beside them)
    # through exactly one rref call
    fam = setfam.SetFamily(13, 4, 2, SINGLETON_FAMILY)
    pcm = lrc.build_parity_check(fam, 5)
    field, rows = pcm.field, pcm.rows
    gen = codec.generator_from_parity(field, rows)
    word = codec.encode(field, gen, list(range(1, len(gen) + 1)))
    calls = {
        "rank": lambda: linalg.rank(field, rows),
        "nullspace_basis": lambda: linalg.nullspace_basis(field, rows),
        "solve": lambda: linalg.solve(field, rows, [0] * len(rows)),
        "generator_from_parity": lambda: codec.generator_from_parity(field, rows),
        "erasure_decode": lambda: codec.erasure_decode(field, rows, [None] + word[1:]),
    }
    for name, call in calls.items():
        with mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
            call()
        assert rref.call_count == 1 and len(rref.call_args.args[1]) == len(rows), name
