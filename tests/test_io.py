"""File format round trips and schema validation."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from numrad.bounds import DiskCertificate, verify_all
from numrad.extremal import gen_disk_instance, search_sqrt_disk, shift2
from numrad.io import (
    load_matrix,
    matrix_to_obj,
    obj_to_matrix,
    reports_to_jsonl,
    save_matrix,
    search_result_to_obj,
    write_boundary_csv,
    write_boundary_svg,
)
from numrad.numrange import numerical_range_boundary, range_summary


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[0, 0] = -0.0 + 0.0j
    path = tmp_path / "m.json"
    save_matrix(path, a)
    b = load_matrix(path)
    assert a.shape == b.shape
    assert np.array_equal(a.view(float), b.view(float))  # bit exact incl. -0.0


def test_matrix_schema_shape():
    obj = matrix_to_obj(shift2())
    assert obj == {"n": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize(
    "obj",
    [
        42,
        {"n": 2},
        {"entries": []},
        {"n": 0, "entries": []},
        {"n": True, "entries": [[[0, 0]]]},
        {"n": 2, "entries": [[[0, 0], [0, 0]]]},
        {"n": 1, "entries": [[[0, 0], [0, 0]]]},
        {"n": 1, "entries": [[[0]]]},
        {"n": 1, "entries": [[[0, "x"]]]},
        {"n": 1, "entries": [[[0, True]]]},
        {"n": 1, "entries": [[[np.inf, 0]]]},
        {"n": 1, "entries": [[[10**400, 0]]]},
    ],
)
def test_matrix_schema_rejects(obj):
    with pytest.raises(ValueError):
        obj_to_matrix(obj)


def test_float_pairs_parse_bit_for_bit_like_the_per_entry_checks():
    # All-float pairs take one np.array call; a float subclass takes the
    # per-entry path, which must give the same bits, -0.0 and subnormals included.
    class Float(float):
        pass

    values = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
              1.7976931348623157e308, 0.1, -3.75, 1.0, -1.0]
    for n in (1, 4):
        flat = (values + values[::-1]) * 2
        entries = [[flat[2 * (n * i + j) : 2 * (n * i + j) + 2] for j in range(n)] for i in range(n)]
        fast = obj_to_matrix({"n": n, "entries": entries})
        loop = obj_to_matrix({"n": n, "entries": [[[Float(v) for v in p] for p in row] for row in entries]})
        ref = np.array([[complex(*p) for p in row] for row in entries])
        assert fast.shape == (n, n) and fast.flags.c_contiguous
        assert fast.tobytes() == loop.tobytes() == ref.tobytes()


def test_matrix_schema_mixed_types_take_the_per_entry_checks():
    assert obj_to_matrix({"n": 1, "entries": [[[1, -0.0]]]}).view(float).tolist() == [[1.0, -0.0]]
    with pytest.raises(ValueError, match="row 0 must be a list"):
        obj_to_matrix({"n": 1, "entries": [([0.0, 0.0],)]})
    with pytest.raises(ValueError, match=r"entry \(0,0\) must be a \[re, im\] number pair"):
        obj_to_matrix({"n": 1, "entries": [[(0.0, 0.0)]]})


def test_load_matrix_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_boundary_csv_format(tmp_path):
    b = numerical_range_boundary(shift2(), 16)
    path = tmp_path / "b.csv"
    write_boundary_csv(path, b)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,re,im,support"
    assert len(lines) == 17
    for line, th, z, s in zip(lines[1:], b.thetas, b.points, b.supports):
        cols = line.split(",")
        assert len(cols) == 4
        assert float(cols[0]) == th  # 17 significant digits round-trip
        assert float(cols[1]) == z.real
        assert float(cols[2]) == z.imag
        assert float(cols[3]) == s


def test_reports_jsonl_schema():
    t, cert = gen_disk_instance(1.0, 0.4, 3, 0)
    reports = verify_all(t, [cert])
    text = reports_to_jsonl(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports)
    for line, rep in zip(lines, reports):
        obj = json.loads(line)
        base = {"inequality_id", "hypothesis_ok", "diagnostic", "lhs", "rhs", "slack", "w", "norm"}
        if rep.refinement_flag is None:
            assert set(obj) == base
        else:
            assert set(obj) == base | {"refinement_flag"}
            assert obj["refinement_flag"] == rep.refinement_flag
        assert obj["inequality_id"] == rep.inequality_id
        assert obj["lhs"] == rep.lhs  # bit-exact float round trip
        assert obj["slack"] == rep.slack


def test_search_result_obj():
    res = search_sqrt_disk(2, 10, seed=0)
    obj = search_result_to_obj(res)
    assert set(obj) == {"candidate", "lambda", "violations", "score"}
    assert set(obj["violations"]) == {"norm_dev", "nilpotency", "disk_excess"}
    assert obj["candidate"]["n"] == 2
    assert obj["score"] == res.score
    json.dumps(obj)  # serializable


def test_svg_is_well_formed(tmp_path):
    summary = range_summary(shift2(), n_theta=64)
    path = tmp_path / "plot.svg"
    write_boundary_svg(path, summary)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("version") == "1.1"
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("circle") == 2
    assert "polygon" in tags


def test_svg_is_scale_free(tmp_path):
    a, _ = gen_disk_instance(1.5 + 0.5j, 0.3, 3, 0)
    texts = []
    for k in (0, -45, -200):
        path = tmp_path / f"plot{k}.svg"
        write_boundary_svg(path, range_summary(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k), 64))
        texts.append(path.read_text())
    assert texts[1] == texts[0] and texts[2] == texts[0]
    zero = tmp_path / "zero.svg"
    write_boundary_svg(zero, range_summary(np.zeros((2, 2)), n_theta=8))
    tags = [child.tag.split("}")[-1] for child in ET.parse(zero).getroot()]
    assert tags.count("circle") == 2 and "polygon" in tags
