"""Golden outputs as a contract: the CLI's CSV bodies and meta.txt, and a
library digest of run_solver, regenerated now and compared with the files
``tests/golden/make_golden.py`` wrote; and the counts the README's library
sketch prints.

The strict test is byte-equal. Bytes are pinned on one platform (README:
traces reproduce bit for bit on one platform), so it skips unless numpy's
version and the machine match ``tests/golden/platform.json``. The
tolerance test always runs: counts and meta.txt match exactly, and fval
within rtol 1e-12 in cells that do not diverge.
"""

import csv
import importlib.util
import json
import os

import numpy as np
import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
README = os.path.join(os.path.dirname(GOLDEN), os.pardir, "README.md")
RTOL = 1e-12

_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(GOLDEN, "make_golden.py")
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden"))
    make_golden.generate(out)
    return out


def _files(root):
    found = []
    for dirpath, _, names in os.walk(root):
        found += [os.path.relpath(os.path.join(dirpath, n), root) for n in names]
    return sorted(f for f in found if f.endswith((".csv", ".txt", ".json")))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _platform(root):
    return json.loads(_read(os.path.join(root, "platform.json")))


def test_golden_bytes_strict(fresh):
    pinned, here = _platform(GOLDEN), _platform(fresh)
    if pinned != here:
        pytest.skip("goldens pinned on %s, running on %s" % (pinned, here))
    assert _files(fresh) == _files(GOLDEN)
    differ = [f for f in _files(GOLDEN)
              if _read(os.path.join(fresh, f)) != _read(os.path.join(GOLDEN, f))]
    assert differ == []


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _diverged_raw_files(meta_text):
    """raw_*.csv names of the cells meta.txt lists as diverged."""
    line = [l for l in meta_text.splitlines() if l.startswith("diverged_cells=")][0]
    cells = [c for c in line.partition("=")[2].split(";") if c]
    return {"raw_%s_%s_%s.csv" % tuple(c.split(",")) for c in cells}


def _assert_trace_close(got, want, diverged, where):
    """Rows of (izo, nht, fval, nnz): counts exact, fval within RTOL
    unless the cell diverged."""
    assert len(got) == len(want), where
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    np.testing.assert_array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]], err_msg=where)
    if not diverged:
        np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=RTOL, atol=0,
                                   err_msg=where)


def test_golden_within_tolerance(fresh, capsys):
    assert _files(fresh) == _files(GOLDEN)
    for run in sorted(os.listdir(os.path.join(GOLDEN, "cli"))):
        want_dir = os.path.join(GOLDEN, "cli", run)
        got_dir = os.path.join(fresh, "cli", run)
        meta = _read(os.path.join(want_dir, "meta.txt"))
        assert _read(os.path.join(got_dir, "meta.txt")) == meta, run
        diverged = _diverged_raw_files(meta.decode())
        for name in sorted(n for n in os.listdir(want_dir) if n.endswith(".csv")):
            want = _csv_rows(os.path.join(want_dir, name))
            got = _csv_rows(os.path.join(got_dir, name))
            assert got[0] == want[0], name
            if name.startswith("raw_"):
                _assert_trace_close(got[1:], want[1:], name in diverged, run + "/" + name)
            else:
                # agg_*.csv is a function of the raw rows checked above;
                # its izo grid must match exactly
                assert [r[0] for r in got] == [r[0] for r in want], run + "/" + name
    want_lib = json.loads(_read(os.path.join(GOLDEN, "library.json")))
    got_lib = json.loads(_read(os.path.join(fresh, "library.json")))
    assert sorted(got_lib) == sorted(want_lib)
    for key, want in want_lib.items():
        got = got_lib[key]
        for field in ("izo", "nht", "diverged", "epochs", "memory_updates"):
            assert got[field] == want[field], (key, field)
        _assert_trace_close(got["rows"], want["rows"], want["diverged"], key)
    # The README's library sketch runs on the top level's names; its izo and
    # nht are exact on every numpy build, fval's last bits may differ.
    readme = _read(README).decode()
    sketch = readme.split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(sketch, {})
    assert capsys.readouterr().out.endswith(" 78390 130\n")
