import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from smoothgreed.instances import (
    Instance,
    gen_adwords_triangular,
    gen_logdet_stream,
    gen_lp_random,
)
from smoothgreed.objectives import (DiagMap, FeasibleSet, Step, decode_array, encode_array,
                                    l_bound_lp, theta_of_instance)
from smoothgreed.online import run_simultaneous
from smoothgreed.objectives import SeparableObjective
from smoothgreed.scalar import Cap

from oracles import enumerate_offline_best


class TestTriangular:
    def test_tiny_instance_shape(self):
        inst = gen_adwords_triangular(2, 1)
        assert len(inst.steps) == 2
        assert inst.extras["offline_opt"] == 2.0

    def test_offline_optimum_closed_form(self):
        # the stated optimum is attained and cannot be beaten (brute force)
        inst = gen_adwords_triangular(3, 2)
        obj = SeparableObjective([Cap(1.0)] * 3)
        best = enumerate_offline_best(obj.value, inst.steps, frac=2)
        assert best == pytest.approx(inst.extras["offline_opt"], abs=1e-12)

    def test_theta_l_structure(self):
        inst = gen_adwords_triangular(4, 2)
        assert theta_of_instance(inst.steps) == 1.0
        assert l_bound_lp(inst.steps) == pytest.approx(1.0, rel=1e-5)

    def test_phase_sets_shrink(self):
        inst = gen_adwords_triangular(3, 1)
        supports = [int(np.sum(st.A.a > 0)) for st in inst.steps]
        assert supports == [3, 2, 1]


class TestRandomPacking:
    def test_seed_determinism(self):
        a = gen_lp_random(4, 10, 2, 0.6, seed=9)
        b = gen_lp_random(4, 10, 2, 0.6, seed=9)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.A.c, sb.A.c)
            np.testing.assert_array_equal(sa.A.B, sb.A.B)

    def test_attached_parameters_match_recomputation(self):
        inst = gen_lp_random(5, 12, 3, 0.5, seed=4)
        assert inst.extras["theta"] == pytest.approx(theta_of_instance(inst.steps), rel=1e-12)
        assert inst.extras["l"] == pytest.approx(l_bound_lp(inst.steps), rel=1e-12)

    def test_no_dead_columns(self):
        inst = gen_lp_random(4, 20, 3, 0.3, seed=0)
        for st in inst.steps:
            assert st.A.B.any(axis=0).all()

    def test_degenerate_reduces_to_allocation_shape(self):
        inst = gen_lp_random(1, 5, 1, 1.0, seed=2)
        assert all(st.A.B.shape == (1, 1) for st in inst.steps)


class TestDeterminantStream:
    def test_random_vectors_deterministic(self):
        a = gen_logdet_stream(3, 8, 2.0, seed=5)
        b = gen_logdet_stream(3, 8, 2.0, seed=5)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.A.a, sb.A.a)

    def test_path_graph_eigenvalue(self):
        edges = {"base": [(0, 1), (1, 2)], "stream": [(0, 2), (0, 1)]}
        inst = gen_logdet_stream(3, 2, 1.0, source="graph_incidence", seed=0, edges=edges)
        A0 = np.asarray(inst.extras["A0"])
        lam = float(np.linalg.eigvalsh(A0)[0])
        assert inst.extras["lambda_min"] == pytest.approx(lam, rel=1e-12)
        assert inst.extras["l"] == pytest.approx(2.0 / lam * (1 + 1e-6), rel=1e-12)

    def test_complete_graph_spectral_gap(self):
        edges = {"base": [(0, 1), (0, 2), (1, 2)], "stream": [(0, 1)]}
        inst = gen_logdet_stream(3, 1, 1.0, source="graph_incidence", seed=0, edges=edges)
        # lambda_2 of the complete-graph Laplacian equals n
        L0 = np.asarray(inst.extras["A0"]) - 1.0
        lam2 = float(np.sort(np.linalg.eigvalsh(L0))[1])
        assert lam2 == pytest.approx(3.0, abs=1e-9)

    def test_disconnected_graph_rejected(self):
        edges = {"base": [(0, 1)], "stream": [(0, 1)]}
        with pytest.raises(ValueError):
            gen_logdet_stream(3, 1, 1.0, source="graph_incidence", seed=0, edges=edges)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        for inst in (gen_adwords_triangular(3, 2),
                     gen_lp_random(3, 6, 2, 0.7, seed=1),
                     gen_logdet_stream(3, 5, 2.0, seed=1)):
            p = tmp_path / "inst.json"
            inst.save(str(p))
            back = Instance.load(str(p))
            assert back.family == inst.family and back.params == inst.params
            for sa, sb in zip(inst.steps, back.steps):
                if hasattr(sa.A, "a"):
                    np.testing.assert_array_equal(np.atleast_1d(sa.A.a), np.atleast_1d(sb.A.a))
                else:
                    np.testing.assert_array_equal(sa.A.c, sb.A.c)
                    np.testing.assert_array_equal(sa.A.B, sb.A.B)
            # a second serialization is byte-identical
            assert json.dumps(inst.to_jsonable()) == json.dumps(back.to_jsonable())

    def test_version_gate(self):
        with pytest.raises(ValueError):
            Instance.from_jsonable({"version": "v0", "family": "x", "steps": []})

    def test_v3_runs_round_trip_byte_identical(self, tmp_path):
        # a run of one Step object is written once; the loader shares it again
        inst = gen_adwords_triangular(4, 3)
        p = tmp_path / "inst.json"
        inst.save(str(p))
        text = p.read_text()
        assert text == json.dumps(inst.to_jsonable())
        d = json.loads(text)
        assert d["version"] == "v3"
        assert [s["repeat"] for s in d["steps"]] == [3, 3, 3, 3]
        back = Instance.load(str(p))
        assert len(back.steps) == 12 and len({id(s) for s in back.steps}) == 4
        assert all(back.steps[t] is back.steps[t - 1] for t in range(1, 12) if t % 3)
        back.save(str(p))
        assert p.read_text() == text

    def test_runs_go_by_identity(self):
        # equal steps held as distinct objects stay distinct entries, so -0.0
        # and 0.0 are never merged; a single step carries no repeat
        st = Step(DiagMap(np.array([0.5, 0.0])), FeasibleSet("simplex", 2))
        neg = Step(DiagMap(np.array([0.5, -0.0])), FeasibleSet("simplex", 2))
        inst = Instance("adwords_triangular", {"n": 2}, [st, st, copy.copy(st), neg], {})
        steps = inst.to_jsonable()["steps"]
        assert [s.get("repeat") for s in steps] == [2, None, None]
        back = Instance.from_jsonable(json.loads(json.dumps(inst.to_jsonable())))
        assert math.copysign(1.0, back.steps[3].A.a[1]) == -1.0
        assert json.dumps(back.to_jsonable()) == json.dumps(inst.to_jsonable())

    def test_v1_dict_loads(self):
        step = {"A": {"kind": "diag", "a": [0.5, 0.25]}, "F": {"kind": "simplex", "k": 2}}
        d = {"version": "v1", "family": "adwords_triangular", "params": {"n": 2},
             "steps": [step, step], "extras": {"offline_opt": 2.0}}
        inst = Instance.from_jsonable(d)
        assert len(inst.steps) == 2 and inst.steps[0] is not inst.steps[1]
        for st in inst.steps:
            np.testing.assert_array_equal(st.A.a, [0.5, 0.25])
            assert st.F.kind == "simplex" and st.F.k == 2
        assert inst.extras == {"offline_opt": 2.0}

    def test_v2_decimal_file_loads_bit_identical(self, tmp_path):
        # a v2 file holds decimal lists; it loads to the same bits and re-saves as v3
        for inst in (gen_adwords_triangular(3, 2),
                     gen_lp_random(3, 6, 2, 0.7, seed=1),
                     gen_logdet_stream(4, 6, 2.0, seed=1)):
            d = inst.to_jsonable()
            d["version"] = "v2"
            for step in d["steps"]:
                A = step["A"]
                for key in ("a", "c", "B"):
                    if key in A:
                        A[key] = decode_array(A[key]).tolist()
            p = tmp_path / "v2.json"
            p.write_text(json.dumps(d))
            back = Instance.load(str(p))
            for sa, sb in zip(inst.steps, back.steps, strict=True):
                for key in ("a", "c", "B"):
                    if hasattr(sa.A, key):
                        a, b = getattr(sa.A, key), getattr(sb.A, key)
                        assert b.dtype == np.float64 and a.tobytes() == b.tobytes()
            back.save(str(p))
            assert p.read_text() == json.dumps(inst.to_jsonable())
            assert json.loads(p.read_text())["version"] == "v3"

    def test_nonfinite_step_leaves_no_file(self, tmp_path):
        # the encoder raises at the third step, part way through the file
        steps = [Step(DiagMap(np.array([0.5, v])), FeasibleSet("simplex", 2))
                 for v in (0.25, 0.5, math.nan, 1.0)]
        p = tmp_path / "inst.json"
        with pytest.raises(ValueError, match="non-finite"):
            Instance("adwords_triangular", {"n": 2}, steps, {}).save(str(p))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("edit, match", [
        # each blob but the first two is the right length for its shape
        (lambda A: A["a"].update(f64="*" + A["a"]["f64"]), r"steps\[1\]: "),
        (lambda A: A["a"].update(f64=A["a"]["f64"][:-4]), r"steps\[1\]: .*bytes"),
        (lambda A: A["a"].update(shape=[-1]), r"steps\[1\]: array shape must be"),
        (lambda A: A["a"].update(shape=[True], f64=encode_array([0.5])["f64"]),
         r"steps\[1\]: array shape must be"),
        (lambda A: A["a"].update(shape=[2.0], f64=encode_array([0.5, 0.5])["f64"]),
         r"steps\[1\]: array shape must be"),
        (lambda A: A["a"].update(shape="3"), r"steps\[1\]: array shape must be"),
        (lambda A: A["a"].pop("f64"), r"steps\[1\]: missing key 'f64'"),
        (lambda A: A.update(kind="dense"), r"steps\[1\]: unknown step map kind"),
        (lambda A: A.pop("kind"), r"steps\[1\]: missing key 'kind'"),
    ])
    def test_bad_step_descriptor_named(self, edit, match):
        d = gen_adwords_triangular(3, 2).to_jsonable()
        edit(d["steps"][1]["A"])
        with pytest.raises(ValueError, match=match):
            Instance.from_jsonable(d)

    @pytest.mark.parametrize("repeat", [0, -2, 1.5, 2.0, True, "3", None])
    def test_bad_repeat_rejected(self, repeat):
        d = gen_adwords_triangular(2, 2).to_jsonable()
        d["steps"][1]["repeat"] = repeat
        with pytest.raises(ValueError, match="repeat"):
            Instance.from_jsonable(d)


_BITS = hs.integers(0, 2**64 - 1).map(lambda b: np.array([b], dtype="<u8").view("<f8")[0])


@settings(max_examples=60, deadline=None)
@given(shape=hs.one_of(hs.just(()), hs.tuples(hs.integers(0, 6)),
                       hs.tuples(hs.integers(0, 4), hs.integers(0, 4))),
       data=hs.data())
def test_array_round_trip_bit_exact(shape, data):
    # any finite binary64, -0.0, subnormals and +-max included, survives the
    # blob and a JSON round trip as the same bits in a fresh float64 array
    size = math.prod(shape)
    special = hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               np.finfo(float).max, -np.finfo(float).max])
    vals = data.draw(hs.lists(hs.one_of(special, _BITS.filter(np.isfinite)),
                              min_size=size, max_size=size))
    a = np.array(vals, dtype=float).reshape(shape)
    back = decode_array(json.loads(json.dumps(encode_array(a))))
    assert back.shape == a.shape and back.dtype == np.float64
    assert back.tobytes() == a.tobytes()
    assert back.flags.owndata and back.flags.writeable
    if size:
        with pytest.raises(ValueError, match="non-finite"):
            encode_array(np.where(np.arange(size).reshape(shape) == size - 1, math.nan, a))
