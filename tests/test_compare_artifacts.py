import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from seglab.imgio import write_pfm

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ckpt(params, header=b'{"format": "test"}'):
    return header + b"\n" + np.asarray(params, dtype="<f8").tobytes()


def make_tree(root: Path, *, rel_error=0.25, param=0.5, stdout="loss=dice DSC=0.9\n", header=b'{"format": "test"}'):
    (root / "run").mkdir(parents=True)
    (root / "run" / "gradaudit.json").write_text(json.dumps({"max_rel_error": rel_error, "distinct_values": [2, 2]}))
    (root / "run" / "best.ckpt").write_bytes(ckpt([1.0, -2.0, param, 4.0], header))
    (root / "run.stdout").write_text(stdout)
    (root / "val_dsc.csv").write_text("epoch,dsc_k1\n0,0.5\n")
    write_pfm(root / "run" / "g_k0.pfm", np.array([[0.5, -0.25], [1.0, 0.0]]))


def run(tool, a, b):
    out = io.StringIO()
    return tool.compare(a, b, out), out.getvalue().splitlines()


def test_identical_trees(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines == ["5 files in both trees, 5 byte-identical, 0 differ"]


def test_json_float_one_ulp_apart(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", rel_error=math.nextafter(0.25, 1.0))
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 0
    ulp = math.ulp(0.25)
    assert lines[0] == f"run/gradaudit.json: max |diff| {ulp:.3g}, / max|A| {ulp / 2:.3g}, 1 of 3 values differ"


def test_one_checkpoint_parameter_changed(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", param=0.5 + 1e-3)
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines[0].startswith("run/best.ckpt: max |diff| 0.001, / max|A| 0.00025, 1 of 4 values differ")


def test_one_stdout_line_changed(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", stdout="loss=dice DSC=0.8\n")
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[0].startswith("run.stdout: non-numeric difference")


def test_checkpoint_headers_must_be_equal(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", header=b'{"format": "other"}')
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[0] == "run/best.ckpt: non-numeric difference (checkpoint headers differ)"


def test_file_sets_differ(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    (tmp_path / "b" / "extra.txt").write_text("x\n")
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines[0] == f"only in {tmp_path / 'b'}: extra.txt"


def test_csv_and_pfm_compare_by_number(tool, tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    (tmp_path / "b" / "val_dsc.csv").write_text("epoch,dsc_k1\n0,0.5000001\n")
    write_pfm(tmp_path / "b" / "run" / "g_k0.pfm", np.array([[0.5, -0.25], [1.0, 0.5]]))
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert lines[0] == "run/g_k0.pfm: max |diff| 0.5, / max|A| 0.5, 1 of 4 values differ"
    assert lines[1].startswith("val_dsc.csv: max |diff| 1e-07")
    # a text cell that differs is not a number
    (tmp_path / "b" / "val_dsc.csv").write_text("epoch,dsc_k2\n0,0.5\n")
    code, lines = run(tool, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "val_dsc.csv: non-numeric difference (text cells differ on line 1)" in lines
