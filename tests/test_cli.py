import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import betamix
from betamix import simulate
from betamix.cli import _indented, build_parser, main
from betamix.pmf import CELL_CAP


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_partition_subcommand(capsys):
    code, out, _ = run(capsys, ["partition", "7", "3"])
    assert code == 0
    assert out.strip() == "[[1,4,7],[2,5],[3,6]]"


def test_partition_invalid_args(capsys):
    code, _, err = run(capsys, ["partition", "3", "5"])
    assert code == 1
    assert "1 <= m <= n" in err


def test_module_runs_as_a_program():
    # the exit status of ``python -m betamix.cli`` is main's return value
    assert fresh_run(["partition", "7", "3"]) == (0, "[[1,4,7],[2,5],[3,6]]\n", "")
    code, out, err = fresh_run(["partition", "3", "4"])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_beta_chain_closed_form(tmp_path, capsys):
    p = q = 0.25
    cfg = write(
        tmp_path,
        "beta.json",
        {
            "chain": {
                "states": [0, 1],
                "transition": [[1 - p, p], [q, 1 - q]],
                "initial": [0.5, 0.5],
            },
            "m": 3,
        },
    )
    code, out, _ = run(capsys, ["beta", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(2 * 0.25 * 0.5**3)
    assert doc["horizon"] == 64


def test_beta_joint(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "joint.json",
        {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.5, 0.0, 0.0, 0.5]}},
    )
    code, out, _ = run(capsys, ["beta", cfg])
    assert code == 0
    assert json.loads(out)["beta"] == pytest.approx(0.5)


def test_couple_subcommand(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "couple.json",
        {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.4, 0.1, 0.1, 0.4]}},
    )
    code, out, _ = run(capsys, ["couple", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_original"] == 2
    assert doc["verification"]["mismatch_error"] < 1e-10


def test_entropy_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, "ent.json", {"entropy": "sauer_shelah", "V": 1, "B": 1.0, "r": 0.25})
    code, out, _ = run(capsys, ["entropy", cfg])
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(5.4265, abs=1e-3)


def test_entropy_exact_cover(tmp_path, capsys):
    cfg = write(
        tmp_path, "cover.json",
        {"entropy": "exact_cover", "values": [[0.0], [1.0], [1.01]], "r": 0.5},
    )
    code, out, _ = run(capsys, ["entropy", cfg])
    assert code == 0
    assert json.loads(out)["covering_number"] == 2


def params_doc(**over):
    doc = {
        "epsilon": 0.5, "c": 2.0, "gamma": 2.0, "gamma_prime": 2.0,
        "lambda": 1.5, "B": 1.0, "V": 1, "n": 1000, "m": 2,
    }
    doc.update(over)
    return doc


def test_bound_weak_error(tmp_path, capsys):
    cfg = write(
        tmp_path, "bound.json",
        {"bound": "weak_error", "params": params_doc(), "bias": 0.0, "beta_at_m": 0.0},
    )
    code, out, _ = run(capsys, ["bound", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(doc["variance_term"])


def test_bound_hypothesis_violation_exits_one(tmp_path, capsys):
    cfg = write(
        tmp_path, "bad.json",
        {"bound": "weak_error", "params": params_doc(**{"lambda": 3.0}), "bias": 0.0, "beta_at_m": 0.0},
    )
    code, _, err = run(capsys, ["bound", cfg])
    assert code == 1
    assert "lambda <= (3+sqrt(1+8c))/4" in err


def test_regress_subcommand(tmp_path, capsys):
    cfg = write(
        tmp_path, "reg.json",
        {
            "family": {"kind": "state_table", "tables": [{"0": 0.0, "1": 0.0}, {"0": 1.0, "1": 1.0}]},
            "xs": [0, 1, 0],
            "ys": [1.0, 1.0, 1.0],
            "B": 1.0,
        },
    )
    code, out, _ = run(capsys, ["regress", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["member_index"] == 1
    assert doc["empirical_risk"] == pytest.approx(0.0)


def experiment_doc(seed=21):
    return {
        "experiment": "deviation",
        "generator": {
            "kind": "iid",
            "seed": seed,
            "law": {"support": [0, 1], "probs": [0.5, 0.5]},
        },
        "family": {"kind": "state_table", "tables": [{"0": 0.0, "1": 1.0}]},
        "params": params_doc(n=400, m=1),
        "entropy_spec": {"entropy": "finite", "n_members": 1},
        "t_grid": [0.3, 0.4],
        "replications": 300,
    }


def test_simulate_subcommand_csv(tmp_path, capsys):
    cfg = write(tmp_path, "exp.json", experiment_doc())
    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--output", str(out_csv), "--format", "csv"])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("n,m,t,frequency")
    assert len(lines) == 3


def test_simulate_csv_without_output_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "exp.json", experiment_doc())
    with pytest.raises(SystemExit) as exc:
        main(["simulate", cfg, "--format", "csv"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "--output" in out.err


def test_simulate_byte_identical_given_seed(tmp_path, capsys):
    cfg = write(tmp_path, "exp.json", experiment_doc())
    code1, out1, _ = run(capsys, ["simulate", cfg, "--seed", "5"])
    code2, out2, _ = run(capsys, ["simulate", cfg, "--seed", "5"])
    _, out3, _ = run(capsys, ["simulate", cfg, "--seed", "6"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 != out3


def test_verify_subcommand_dominant(tmp_path, capsys):
    cfg = write(tmp_path, "exp.json", experiment_doc())
    code, out, _ = run(capsys, ["verify", cfg])
    assert code == 0
    assert json.loads(out)["rows"][0]["dominant"] is True


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["beta", "/nonexistent/config.json"])
    assert code == 2
    assert "i/o error" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, ["beta", str(path)])
    assert code == 2


GOLDEN_CHAIN = {
    "states": [0, 1, 2],
    "transition": [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]],
    "initial": [0.2, 0.3, 0.5],
}
GOLDEN_MDEP_TABLE = {str(s): (s - 1.5) / 15.0 for s in range(4)}
GOLDEN_PROCESS_WEIGHTS = [0 if (i // 2) % 9 == 4 else (7 * i) % 13 + 1 for i in range(36)]
GOLDEN_PROCESS_PROBS = [w / sum(GOLDEN_PROCESS_WEIGHTS) for w in GOLDEN_PROCESS_WEIGHTS]
GOLDEN_BINARY7_WEIGHTS = [(5 * i) % 11 + 1 for i in range(2 ** 7)]
GOLDEN_BINARY5_WEIGHTS = [(3 * i) % 7 + 1 for i in range(2 ** 5)]
GOLDEN_DOCS = {
    "simulate-markov": {
        "experiment": "deviation",
        "generator": {"kind": "markov", "seed": 3, "chain": GOLDEN_CHAIN},
        "family": {"kind": "state_table",
                   "tables": [{"0": 0.0, "1": 1.0, "2": 0.5}, {"0": 1.0, "1": 0.0, "2": 0.25},
                              {"0": 0.3, "1": 0.3, "2": 0.9}]},
        "params": params_doc(epsilon=0.05, n=120, m=4),
        "entropy_spec": {"entropy": "finite", "n_members": 3},
        "t_grid": [0.0, 0.02, 0.05, 0.1],
        "replications": 150,
    },
    "simulate-iid": {
        "experiment": "deviation",
        "generator": {"kind": "iid", "seed": 4,
                      "law": {"support": [0, 1, 2], "probs": [0.2, 0.3, 0.5]}},
        "family": {"kind": "state_table",
                   "tables": [{"0": 0.0, "1": 1.0, "2": 0.0}, {"0": 0.1, "1": 0.2, "2": 0.7}]},
        "params": params_doc(epsilon=0.05, n=80, m=1),
        "entropy_spec": {"entropy": "sauer_shelah", "V": 1, "B": 1.0},
        "t_grid": [0.0, 0.03, 0.06],
        "replications": 150,
    },
    "simulate-mdep-weak-error": {
        "experiment": "weak_error",
        "generator": {"kind": "m_dependent", "seed": 5, "dependence_lag": 2, "alphabet_size": 4,
                      "phi": GOLDEN_MDEP_TABLE,
                      "noise": {"values": [-0.1, 0.1], "probs": [0.5, 0.5]},
                      "response_bound": 0.25},
        "family": {"kind": "affine_span", "range_bound": 0.25},
        "truth": GOLDEN_MDEP_TABLE,
        "params": params_doc(B=0.25, V=3, n=100, m=2),
        "n_grid": [100, 400, 1600],
        "replications": 40,
    },
    "regress-state-table": {
        "family": {"kind": "state_table",
                   "tables": [{"a": 0.0, "b": 0.5, "c": 1.0}, {"a": 0.2, "b": 0.2, "c": 0.9},
                              {"a": -0.1, "b": 0.6, "c": 0.8}]},
        "xs": ["a", "c", "b", "b", "c", "a", "c"],
        "ys": [0.1, 0.95, 0.4, 0.55, 0.85, -0.05, 1.0],
        "B": 1.0,
    },
    "regress-affine-span": {
        "family": {"kind": "affine_span", "scale": 0.5, "range_bound": 1.0},
        "xs": [0, 1, 2, 3, 1, 2, 0, 3],
        "ys": [0.11, 0.27, 0.38, 0.61, 0.22, 0.41, 0.05, 0.58],
        "B": 1.0,
    },
    "beta-chain": {"chain": GOLDEN_CHAIN, "m": 2, "horizon": 16},
    "couple-joint": {"joint": {"axes": [[0, 1], ["x", "y", "z"]],
                               "probs": [0.1, 0.25, 0.05, 0.2, 0.1, 0.3]}},
    # nine atoms on the middle axis, atom 4 of which has no mass
    "couple-process": {"process": {"axes": [[0, 1], list(range(9)), ["a", "b"]],
                                   "probs": GOLDEN_PROCESS_PROBS}},
    # the benchmark's couple shape: 4**7 = 16384 cells in the extended joint
    "couple-binary7": {"process": {
        "axes": [[0, 1]] * 7,
        "probs": [w / sum(GOLDEN_BINARY7_WEIGHTS) for w in GOLDEN_BINARY7_WEIGHTS]}},
    "beta-process": {"process": {
        "axes": [[0, 1]] * 5,
        "probs": [w / sum(GOLDEN_BINARY5_WEIGHTS) for w in GOLDEN_BINARY5_WEIGHTS]}, "m": 2},
    "entropy-exact-cover": {"entropy": "exact_cover", "r": 0.3,
                            "values": [[0.0, 0.5], [0.1, 0.45], [1.0, 0.0], [0.9, 0.2], [0.5, 0.5]]},
    "entropy-sauer-shelah": {"entropy": "sauer_shelah", "V": 3, "B": 2.0, "r": 0.07, "size": 40},
    "entropy-neural-net": {"entropy": "neural_net", "N": 4, "d": 2, "B": 3.0, "r": 0.2, "size": 25},
    "entropy-finite": {"entropy": "finite", "n_members": 7, "r": 0.4},
    "entropy-zero": {"entropy": "zero", "r": 0.5},
    "bound-indep-deviation": {
        "bound": "indep_deviation",
        "params": params_doc(epsilon=0.5, c=2.0, B=0.5, n=5000, m=1),
        "entropy_spec": {"entropy": "sauer_shelah", "V": 2, "B": 0.5},
        "t": 0.45,
        "size": 1000,
    },
    "bound-beta-deviation": {
        "bound": "beta_deviation",
        "params": params_doc(epsilon=0.9, c=4.0,
                             mixing={"model": "subexponential", "a": 0.5, "b": 0.7, "gamma": 1.0},
                             n=1000, m=20),
        "entropy_spec": {"entropy": "finite", "n_members": 3},
        "t": 1.2,
    },
    "bound-weak-error": {
        "bound": "weak_error",
        "params": params_doc(B=0.25, V=3, n=800, m=4,
                             mixing={"model": "subexponential", "a": 0.5, "b": 0.7, "gamma": 1.0}),
        "bias": 0.0125,
    },
}
# sha256 of stdout for each (document, command, extra arguments): any change
# to the output bytes for a fixed (config, seed) fails; a name that is not in
# GOLDEN_DOCS runs without a config
GOLDEN = {
    ("beta-chain", "beta", ()):
        "8d3bef6647d9616ed37fbe1d31284119c55656da31b8ccf57f031840460440df",
    ("beta-process", "beta", ()):
        "383b614b6806a99d542cfd659a45dcc6e98037bb6f3aad4ab8ed65f57573a734",
    ("bound-beta-deviation", "bound", ()):
        "bdf1f55c2bfe5447ad8bec7bbbee5cdd924e05d466bbc07cb32f0293c2fa9b01",
    ("bound-indep-deviation", "bound", ()):
        "6207b43bccd29da85aa03b4deca153743e21df058d07a33ee1449929dd29b3e4",
    ("bound-weak-error", "bound", ()):
        "f96a90cba988c84fe344665719ce58879c7435d4cb2c0acc6676c84ac942cc0b",
    ("couple-binary7", "couple", ()):
        "1c22a6f8e5e791e314fa1e5f21cbbb4f44199964381540fd7818896aa0a5e43d",
    ("couple-joint", "couple", ()):
        "eaa184729f1aa209084ec837bb101fa2ad9fe781424961de7effc2bf63b4c8f6",
    ("couple-process", "couple", ()):
        "e0ca26241f08a6b9630909a958390d32b28e10588dfdf3d7b991ddbad7eec80a",
    ("entropy-exact-cover", "entropy", ()):
        "c38d666e6817cc70818ae9d78fa4f5a74c4cfa2af568269b7a99de49c159d6a9",
    ("entropy-finite", "entropy", ()):
        "1e4a14440fc4c3facf98895d97b29e38a7958a369cd568d3b81ee2d24657fe7b",
    ("entropy-neural-net", "entropy", ()):
        "e4b73775d1c24bc5309f769f6653b386cba4f20053715b70d4fa90e44231b462",
    ("entropy-sauer-shelah", "entropy", ()):
        "af3e1bae6ecd3ee33eb39d626ba5d78cac61c932516fac4b364fedc2af0601a9",
    ("entropy-zero", "entropy", ()):
        "7984823b956477b98e5174bee824645df07becc06e31f5f4f8a89f6aeb131998",
    ("partition", "partition", ("10", "3")):
        "213c671b3cea852ce3953624e227e527fbef7c503b57699b7e5b6bf3f1bf6c39",
    ("regress-affine-span", "regress", ()):
        "2beec5f8bc3fdb9cd4a5ccaa844dcb1e7e64de071ccba3d27d0038d52380f2b0",
    ("regress-state-table", "regress", ()):
        "8249fd7c7a3ce45e4bd30aaf717ca54f8902d40873b383210c45bd8450d1c439",
    ("simulate-iid", "simulate", ()):
        "7398fe99eeaf693a6a28203a7c7efda9ef1ef497d092abb6ec8dd987b35dc59c",
    ("simulate-markov", "simulate", ()):
        "38e8977ee7b1d6271e302e1f53896168cea9a7b5a27b6180b0210fa5133d97b9",
    ("simulate-markov", "simulate", ("--seed", "11")):
        "fa5a72c4fe2e3e21780b2d2903a2d2e69faa3942ad12e38dbc5f6c91ede523e1",
    ("simulate-mdep-weak-error", "simulate", ()):
        "1494f273b13f80d0d45c007c0c200c2b2faf2977dbf359c2ee9211e4c584d658",
    ("simulate-mdep-weak-error", "simulate", ("--seed", "9")):
        "5d8a5c9065c1f67c254a5e4b2960742f872f5b34e973b7edfbf4b1f7bec0c41e",
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name,command,extra", sorted(GOLDEN), ids=[" ".join((k[0],) + k[2]) for k in sorted(GOLDEN)]
)
def test_golden_stdout_bytes(tmp_path, capsys, name, command, extra):
    cfg = [write(tmp_path, f"{name}.json", GOLDEN_DOCS[name])] if name in GOLDEN_DOCS else []
    code, out, err = run(capsys, [command, *cfg, *extra])
    assert code == 0, err
    assert digest(out) == GOLDEN[(name, command, extra)]


def test_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    cfg = write(tmp_path, "couple.json", GOLDEN_DOCS["couple-process"])
    out_path = tmp_path / "couple-out.json"
    code, out, _ = run(capsys, ["couple", cfg, "--output", str(out_path)])
    assert code == 0
    assert out == ""
    assert digest(out_path.read_bytes().decode()) == GOLDEN[("couple-process", "couple", ())]


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300]
# +0.0 is the one cell the writer does not encode, and every other cell must not pass for it
ARRAY_CELLS = [0.0, -0.0, 5e-324, 2.2e-308, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.1]
ODD_TEXT = st.text(st.sampled_from('a ,"\\\n\t:{}[]\x00\u00e9\u20ac\U0001f600'), max_size=6)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from(SPECIAL_FLOATS), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    ODD_TEXT, st.text(max_size=4),
    st.lists(st.one_of(st.sampled_from(ARRAY_CELLS), st.floats()), max_size=8).map(
        lambda cells: np.array(cells, dtype=np.float64)),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(ODD_TEXT, st.text(max_size=4)), inner, max_size=5)),
    max_leaves=40,
)


def as_json(value):
    """The stdlib's stand-in for a value it cannot encode: an array's list, or a float."""
    return value.tolist() if isinstance(value, np.ndarray) else float(value)


@given(JSON_DOCS)
@example({"empty": [[], {}, ()], "specials": SPECIAL_FLOATS,
          "numpy": [np.float64(0.1), np.int64(-3), np.bool_(True), np.float64("nan")],
          "mixed": [1, [2.5, "x"], {"k": ()}, [[[]]], "s"],
          'quote " comma , line\n \u00e9': "\u20ac"})
@example([[0.25, 0.5], [[1, 2], []], (3, {"a": [None, True]})])
@example({"probs": np.array(ARRAY_CELLS), "one": np.array([-0.0]), "none": np.empty(0),
          "nested": [np.array([0.0]), {"zeros": np.zeros(3), "strided": np.arange(6.0)[::-2]}]})
@settings(max_examples=200, deadline=None)
def test_indented_writer_matches_stdlib(doc):
    # the stdlib's indent=2 layout, with each array written as its list, is the reference
    # the CLI's output bytes were fixed by
    assert _indented(doc) == json.dumps(doc, indent=2, default=as_json)


@pytest.mark.parametrize("array", [np.zeros((2, 2)), np.array(0.0), np.zeros(3, dtype=np.int64),
                                   np.zeros(3, dtype=np.float32)])
def test_indented_writer_refuses_other_arrays(array):
    # an integer 0 cell is not the text "0.0": only a 1-D float64 array is written
    with pytest.raises(TypeError, match="1-D float64"):
        _indented({"a": array})


def fresh_run(argv):
    """Run the CLI in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "betamix.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# runs each command given as a JSON list of argv lists, then draws once, and prints whether
# numpy.random was loaded before the draw and after it
LAZY_RANDOM_SCRIPT = """
import json, sys
from betamix.cli import main
from betamix.pmf import FinitePmf
from betamix.simulate import GeneratorSpec, generate
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
before = "numpy.random" in sys.modules
generate(GeneratorSpec(kind="iid", seed=0, law=FinitePmf((0, 1), [0.5, 0.5])), 3)
print(f"before the draw: {before}, after it: {'numpy.random' in sys.modules}")
"""


def test_numpy_random_loads_at_the_first_draw(tmp_path):
    # loading numpy.random adds about 5 MB to a process's peak RSS: queries that draw nothing do not pay it
    commands = [["beta", write(tmp_path, "beta.json", GOLDEN_DOCS["beta-chain"])],
                ["couple", write(tmp_path, "couple.json", GOLDEN_DOCS["couple-process"])],
                ["bound", write(tmp_path, "bound.json", GOLDEN_DOCS["bound-beta-deviation"])],
                ["entropy", write(tmp_path, "entropy.json", GOLDEN_DOCS["entropy-finite"])],
                ["partition", "10", "3"]]
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LAZY_RANDOM_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "before the draw: False, after it: True"


def test_repeated_calls_in_one_process_share_no_state(tmp_path, capsys):
    exp = write(tmp_path, "exp.json", GOLDEN_DOCS["simulate-markov"])
    beta = write(tmp_path, "beta.json", GOLDEN_DOCS["beta-chain"])

    for argv in (["verify", "--seed", "11", exp], ["verify", exp]):
        assert run(capsys, argv)[:2] == fresh_run(argv)[:2]
    # verify writes the simulate report: the config seed's bytes, not seed 11's
    assert digest(run(capsys, ["verify", exp])[1]) == GOLDEN[("simulate-markov", "simulate", ())]

    csv_in_process, csv_fresh = tmp_path / "in-process.csv", tmp_path / "fresh.csv"
    assert run(capsys, ["simulate", "--format", "csv", "--output", str(csv_in_process), exp]) \
        == (0, "", "")
    assert fresh_run(["simulate", "--format", "csv", "--output", str(csv_fresh), exp])[0] == 0
    assert csv_in_process.read_text() == csv_fresh.read_text()
    code, out, _ = run(capsys, ["simulate", exp])
    assert (code, out) == fresh_run(["simulate", exp])[:2]
    json.loads(out)

    with pytest.raises(SystemExit) as exc:
        main(["beta", "--seed", "1", beta])
    assert exc.value.code == 2 == fresh_run(["beta", "--seed", "1", beta])[0]
    capsys.readouterr()
    code, out, _ = run(capsys, ["beta", beta])
    assert code == 0
    assert digest(out) == GOLDEN[("beta-chain", "beta", ())]


def with_change(doc, path, value):
    """A deep copy of doc with the field at the dotted path set (None deletes it)."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    target = doc
    for key in parents:
        target = target[int(key)] if isinstance(target, list) else target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return doc


BETA_DOC = {"chain": {"states": [0, 1], "transition": [[0.75, 0.25], [0.25, 0.75]],
                      "initial": [0.5, 0.5]}, "m": 2}
BOUND_DOC = {"bound": "weak_error", "params": params_doc(), "bias": 0.0, "beta_at_m": 0.0}
SUBEXP = {"model": "subexponential", "a": 0.5, "b": 0.7, "gamma": 1.0}
SUBPOLY = {"model": "subpolynomial", "a": 0.5, "gamma": 2.0}
RATE_DOCS = {kind: {"bound": kind, "params": params_doc(mixing=mixing), "C": 1.0}
             for kind, mixing in (("subexp_rate", SUBEXP), ("subpoly_rate", SUBPOLY))}
# (command, document, field named in the message); every case exits 2
CONFIG_ERRORS = {
    "m not an integer (beta)": ("beta", with_change(BETA_DOC, "m", "abc"), "m"),
    "m not an integer (params)": ("bound", with_change(BOUND_DOC, "params.m", "abc"), "params.m"),
    "unknown mixing model": (
        "bound", with_change(BOUND_DOC, "params.mixing", dict(SUBEXP, model="typo")),
        "params.mixing.model"),
    "subexponential mixing without b": (
        "bound", with_change(BOUND_DOC, "params.mixing", {"model": "subexponential", "a": 0.5,
                                                          "gamma": 1.0}),
        "params.mixing.b"),
    "chain without states": ("beta", with_change(BETA_DOC, "chain.states", None), "chain.states"),
    "params without epsilon": (
        "bound", with_change(BOUND_DOC, "params.epsilon", None), "params.epsilon"),
    "unknown family kind": (
        "simulate", with_change(experiment_doc(), "family.kind", "typo"), "family.kind"),
    "unknown bound kind": ("bound", with_change(BOUND_DOC, "bound", "typo"), "bound"),
    "unknown generator kind": (
        "simulate", with_change(experiment_doc(), "generator.kind", "typo"), "generator.kind"),
    "joint probs do not fit axes": (
        "couple", {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.5, 0.25, 0.25]}}, "joint.probs"),
    "state table missing a state": (
        "regress",
        {"family": {"kind": "state_table", "tables": [{"0": 0.0, "1": 0.0}, {"0": 1.0}]},
         "xs": [0, 1, 0], "ys": [1.0, 1.0, 1.0], "B": 1.0},
        "family.tables[1].1: missing field"),
    "empty t_grid": ("verify", with_change(experiment_doc(), "t_grid", []), "t_grid"),
    "empty n_grid": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "n_grid", []), "n_grid"),
    # integer fields used to truncate these silently (1.5 and true ran as 1); inf raised OverflowError
    "fractional seed": (
        "simulate", with_change(experiment_doc(), "generator.seed", 1.5),
        "generator.seed: expected an integer, got 1.5"),
    "boolean seed": (
        "simulate", with_change(experiment_doc(), "generator.seed", True),
        "generator.seed: expected an integer, got true"),
    "fractional replications": (
        "verify", with_change(experiment_doc(), "replications", 2.5),
        "replications: expected an integer, got 2.5"),
    "fractional m (beta)": ("beta", with_change(BETA_DOC, "m", 1.5), "m: expected an integer, got 1.5"),
    "fractional m (params)": (
        "bound", with_change(BOUND_DOC, "params.m", 1.5), "params.m: expected an integer, got 1.5"),
    "infinite m (beta)": (
        "beta", with_change(BETA_DOC, "m", math.inf), "m: expected an integer, got Infinity"),
    # a fractional sample size used to run truncated (100.5 as 100)
    "fractional n_grid": (
        "simulate",
        with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "n_grid", [100.5, 400.5, 1600.5]),
        "n_grid: expected an integer, got 100.5"),
    # states whose string forms collide would share every state table's entry for that string
    "chain states sharing a key": (
        "verify", with_change(GOLDEN_DOCS["simulate-markov"], "generator.chain.states", [0, 1, "0"]),
        "family.tables[0]: states 0 and '0' share the key '0'"),
    "chain states sharing a key (phi)": (
        "simulate", with_change(with_change(GOLDEN_DOCS["simulate-markov"], "generator.chain.states", ["1", 1, 2]),
                                "generator.phi", {"1": 0.0, "2": 1.0}),
        "generator.phi: states '1' and 1 share the key '1'"),
    "regress xs sharing a key": (
        "regress",
        {"family": {"kind": "state_table", "tables": [{"0": 0.0}, {"0": 1.0}]},
         "xs": [0, "0", 0], "ys": [1.0, 0.0, 1.0], "B": 1.0},
        "family.tables[0]: states 0 and '0' share the key '0'"),
    "document not an object": ("beta", [BETA_DOC], "document: expected an object, got list"),
    "beta without a source": (
        "beta", {"m": 2}, "document: needs one of ('chain', 'joint', 'process')"),
    "states not a list": (
        "beta", with_change(BETA_DOC, "chain.states", "01"), "chain.states: expected a list, got str"),
    "state label neither string nor number": (
        "beta", with_change(BETA_DOC, "chain.states", [0, [1]]),
        "chain.states: state labels must be strings or numbers"),
    "transition of the wrong shape": (
        "beta", with_change(BETA_DOC, "chain.transition", [[0.75, 0.25]]),
        "chain.transition: expected an array of shape (2, 2), got (1, 2)"),
    "affine span over non-numeric states": (
        "regress",
        {"family": {"kind": "affine_span", "range_bound": 1.0}, "xs": ["a", "b", "a"], "ys": [0.1, 0.2, 0.1],
         "B": 1.0},
        "family.kind: affine_span needs numeric states"),
    "affine span over a state past float range": (
        "regress", with_change(GOLDEN_DOCS["regress-affine-span"], "xs", [0, 1, 2, 10**400, 1, 2, 0, 3]),
        "family.kind: affine_span needs numeric states"),
    # a real field or array entry is a JSON number: true, "0.5" and "100" used to run as 1.0, 0.5 and 100,
    # and an integer past float range ended in an uncaught OverflowError
    "boolean real field": (
        "bound", with_change(BOUND_DOC, "params.B", True), "params.B: expected a number, got true"),
    "string real field": (
        "bound", dict(GOLDEN_DOCS["bound-beta-deviation"], t="1.2"), 't: expected a number, got "1.2"'),
    "string integer field": (
        "bound", with_change(BOUND_DOC, "params.n", "100"), 'params.n: expected an integer, got "100"'),
    "string transition entry": (
        "beta", with_change(BETA_DOC, "chain.transition", [["0.75", 0.25], [0.25, 0.75]]),
        'chain.transition: expected a number, got "0.75"'),
    "boolean among joint probs": (
        "couple", {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.5, 0.25, 0.25, False]}},
        "joint.probs: expected a number, got false"),
    "boolean in a grid": (
        "verify", with_change(experiment_doc(), "t_grid", [0.0, True]), "t_grid: expected a number, got true"),
    "string state table value": (
        "simulate", with_change(GOLDEN_DOCS["simulate-markov"], "family.tables.0.1", "1.0"),
        'family.tables[0].1: expected a number, got "1.0"'),
    "real field past float range": (
        "bound", with_change(BOUND_DOC, "params.B", 10**400),
        "params.B: expected a number, got an integer past float range"),
    "radius past float range": (
        "entropy", dict(GOLDEN_DOCS["entropy-finite"], r=10**400),
        "r: expected a number, got an integer past float range"),
    "bias past float range": (
        "bound", dict(BOUND_DOC, bias=-10**400), "bias: expected a number, got an integer past float range"),
    "transition entry past float range": (
        "beta", with_change(BETA_DOC, "chain.transition", [[10**400, 0.25], [0.25, 0.75]]),
        "chain.transition: expected a number, got an integer past float range"),
    "state table value past float range": (
        "regress", with_change(GOLDEN_DOCS["regress-state-table"], "family.tables.1.b", 10**400),
        "family.tables[1].b: expected a number, got an integer past float range"),
    "grid point past float range": (
        "simulate", with_change(experiment_doc(), "t_grid", [0.0, 10**400]),
        "t_grid: expected a number, got an integer past float range"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_two_naming_the_field(tmp_path, capsys, case):
    command, doc, field = CONFIG_ERRORS[case]
    code, out, err = run(capsys, [command, write(tmp_path, "bad.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {field}")


def test_weak_error_grid_of_one_distinct_n_has_no_slope(tmp_path, capsys):
    # a slope needs two distinct sample sizes; a fit through one would be noise (and a numpy warning)
    doc = with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "n_grid", [100, 100])
    code, out, err = run(capsys, ["verify", write(tmp_path, "one_n.json", doc)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["metadata"]["loglog_slope"] is None and [row["n"] for row in report["rows"]] == [100, 100]


def test_integral_float_config_fields_read_as_integers(tmp_path, capsys):
    for command, doc, changes in (
        ("beta", BETA_DOC, {"m": 2, "horizon": 16}),
        ("simulate", experiment_doc(), {"generator.seed": 22, "replications": 30, "params.m": 2}),
        ("simulate", GOLDEN_DOCS["simulate-mdep-weak-error"], {"n_grid": [100, 400]}),
    ):
        ints, floats = doc, doc
        for path, value in changes.items():
            as_float = [float(v) for v in value] if isinstance(value, list) else float(value)
            ints, floats = with_change(ints, path, value), with_change(floats, path, as_float)
        expected = run(capsys, [command, write(tmp_path, "int.json", ints)])
        assert run(capsys, [command, write(tmp_path, "float.json", floats)]) == expected
        assert expected[0] == 0




# flags a subcommand does not read are rejected by argparse (exit 2)
UNREAD_FLAGS = {
    "threads": ["--threads", "1", "partition", "7", "3"],
    "partition format and seed": ["partition", "10", "3", "--format", "csv", "--seed", "1"],
    "beta seed": ["beta", "beta.json", "--seed", "1"],
    "verify format": ["verify", "exp.json", "--format", "csv"],
}


@pytest.mark.parametrize("case", sorted(UNREAD_FLAGS))
def test_threads_flag_rejected(capsys, case):
    with pytest.raises(SystemExit) as exc:
        main(UNREAD_FLAGS[case])
    assert exc.value.code == 2


NAN = float("nan")
DRIFTING_CHAIN = {"states": [0, 1], "transition": [[0.5, 0.5 - 9e-13], [0.5, 0.5 - 9e-13]],
                  "initial": [0.5, 0.5]}
COVER_DOC = {"entropy": "exact_cover", "values": [[0.0, 1.0], [1.0, 0.0]], "r": 1e-13}
# criterion-7 shape; a Sauer-Shelah entropy of V=200 takes the independent bound's
# exponential past exp's range, which used to end in an OverflowError traceback
CRITERION7_PARAMS = params_doc(epsilon=0.9, c=4.0, n=1000, m=20,
                               mixing=dict(SUBEXP, b=math.log(2.0)))
LARGE_ENTROPY = {"entropy": "sauer_shelah", "V": 200, "B": 1.0}
CRITERION7_DOC = {
    "experiment": "deviation",
    "generator": {"kind": "markov", "seed": 7, "chain": BETA_DOC["chain"]},
    "family": {"kind": "state_table",
               "tables": [{"0": 0.0, "1": 1.0}, {"0": 1.0, "1": 0.0}, {"0": 0.5, "1": 0.5}]},
    "params": CRITERION7_PARAMS,
    "entropy_spec": LARGE_ENTROPY,
    "t_grid": [1.2],
    "replications": 45,
}
LARGE_BOUND_DOC = {"bound": "beta_deviation", "params": CRITERION7_PARAMS, "entropy_spec": LARGE_ENTROPY,
                   "t": 1.2}
# valid inputs at floating-point edges: (command, document, expected answer)
FLOAT_EDGES = {
    "chain rows short of 1 within tolerance": (
        "beta", {"chain": DRIFTING_CHAIN, "m": 2}, lambda doc: doc["beta"] < 1e-10),
    "exact cover below the strictness margin": (
        "entropy", COVER_DOC, lambda doc: doc["covering_number"] == 2),
    "greedy cover below the strictness margin": (
        "entropy", dict(COVER_DOC, entropy="greedy_cover"), lambda doc: doc["covering_number"] == 2),
    "overflowing entropy term (verify)": (
        "verify", CRITERION7_DOC, lambda doc: doc["rows"][0]["vacuous"] and doc["rows"][0]["bound"] == 1.0),
    "overflowing entropy term (beta deviation)": (
        "bound", LARGE_BOUND_DOC, lambda doc: doc["bound"] == 1.0),
    "overflowing entropy term (indep deviation)": (
        "bound", dict(LARGE_BOUND_DOC, bound="indep_deviation"), lambda doc: doc["bound"] == math.inf),
    "overflowing entropy term (finite family)": (
        "bound", dict(LARGE_BOUND_DOC, entropy_spec={"entropy": "finite", "n_members": 10**400}),
        lambda doc: doc["bound"] == 1.0),
    # B**2 past float range used to end in an OverflowError traceback
    "B squared past float range (weak error)": (
        "bound", with_change(dict(BOUND_DOC, beta_at_m=0.5), "params.B", 1e200),
        lambda doc: doc["variance_term"] == doc["beta_error_term"] == doc["total"] == math.inf),
    "B squared past float range (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.B", 1e200), lambda doc: doc["rate"] == math.inf),
    "B squared past float range (subpoly rate)": (
        "bound", with_change(RATE_DOCS["subpoly_rate"], "params.B", 1e200), lambda doc: doc["rate"] == math.inf),
    # beta is 0 at m = lag = 2, and a zero beta prices nothing even against an infinite B**2
    "B squared past float range (verify weak error)": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "params.B", 1e200),
        lambda doc: all(row["bound_total"] == math.inf and row["bound_beta"] == 0.0 and row["vacuous"]
                        for row in doc["rows"])),
    # m**gamma past float range used to make numpy warn "overflow encountered in power"
    "envelope power past float range": (
        "bound", with_change(with_change(LARGE_BOUND_DOC, "params.mixing.gamma", 2000.0), "params.m", 2),
        lambda doc: doc["bound"] == 1.0),
}


@pytest.mark.parametrize("case", sorted(FLOAT_EDGES))
def test_float_edge_inputs_exit_zero(tmp_path, capsys, case):
    command, doc, expected = FLOAT_EDGES[case]
    code, out, err = run(capsys, [command, write(tmp_path, "edge.json", doc)])
    assert (code, err) == (0, "")
    assert "NaN" not in out
    assert expected(json.loads(out))


# (command, document, start of the message); every case exits 1
DOMAIN_ERRORS = {
    "NaN transition entry": (
        "beta", with_change(BETA_DOC, "chain.transition", [[NAN, 0.5], [0.25, 0.75]]),
        "error: negative transition probability"),
    "NaN initial entry": (
        "beta", with_change(BETA_DOC, "chain.initial", [NAN, 0.5]), "error: negative probability"),
    "NaN joint cell": (
        "beta", {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.5, NAN, 0.0, 0.5]}},
        "error: negative cell probability"),
    "NaN joint cell (couple)": (
        "couple", {"joint": {"axes": [[0, 1], [0, 1]], "probs": [0.5, NAN, 0.0, 0.5]}},
        "error: negative cell probability"),
    "cover table with no points": (
        "entropy", dict(COVER_DOC, values=[[]], r=0.5), "error: a cover needs"),
    "cover table with NaN": (
        "entropy", dict(COVER_DOC, entropy="greedy_cover", values=[[NAN], [1.0]], r=0.5),
        "error: a cover needs"),
    "NaN response (affine span)": (
        "regress", with_change(GOLDEN_DOCS["regress-affine-span"], "ys", [0.1, NAN] + [0.2] * 6),
        "error: responses must be finite"),
    "NaN response (state table)": (
        "regress", with_change(GOLDEN_DOCS["regress-state-table"], "ys", [0.1, NAN] + [0.2] * 5),
        "error: responses must be finite"),
    "NaN phi value": (
        "simulate", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.phi.2", NAN),
        "error: phi must be finite"),
    "infinite noise value": (
        "simulate", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.noise.values",
                                [-0.1, float("inf")]),
        "error: noise_values must be finite"),
    "NaN response bound (regress)": (
        "regress", {"xs": [0, 1, 0, 1], "ys": [0.1, 5.0, 0.2, 0.0], "response_bound": NAN,
                    "family": {"kind": "affine_span"}, "B": 1.0},
        "error: response_bound must be nonnegative"),
    # phi + noise past the float range: the spec's check names it, with no overflow warning before it
    "responses past float range (verify)": (
        "verify", with_change(with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.phi",
                                          {str(s): 1e308 for s in range(4)}),
                              "generator.noise", {"values": [1e308], "probs": [1.0]}),
        "error: responses must be finite"),
    "negative seed": (
        "simulate", with_change(experiment_doc(), "generator.seed", -1),
        "error: seed must be in [0, 2**63), got -1"),
    "seed of 2**64": (
        "simulate", with_change(experiment_doc(), "generator.seed", 2**64),
        "error: seed must be in [0, 2**63), got 18446744073709551616"),
    # a count-based mean would carry a NaN of a state that no path visits into every mean
    "NaN family value (deviation simulate)": (
        "simulate", with_change(experiment_doc(), "family.tables.0.1", NAN), "error: table values must be finite"),
    "NaN response bound (deviation simulate)": (
        "simulate", with_change(experiment_doc(), "generator.response_bound", NAN),
        "error: response_bound must be nonnegative"),
    # bound inputs that would print a wrong bound
    "negative beta_at_m": (
        "bound", dict(GOLDEN_DOCS["bound-beta-deviation"], beta_at_m=-0.5),
        "error: beta(m) must be nonnegative"),
    "negative mixing envelope": (
        "bound", with_change(GOLDEN_DOCS["bound-beta-deviation"], "params.mixing.a", -1.0),
        "error: beta(m) must be nonnegative"),
    "NaN c": (
        "bound", with_change(GOLDEN_DOCS["bound-beta-deviation"], "params.c", NAN),
        "error: c must exceed 1"),
    "NaN B (weak error)": (
        "bound", with_change(BOUND_DOC, "params.B", NAN), "error: B must be positive"),
    "negative envelope (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing.a", -1.0),
        "error: mixing amplitude must be nonnegative"),
    "NaN envelope (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing.a", NAN),
        "error: mixing amplitude must be nonnegative"),
    "negative envelope (subpoly rate)": (
        "bound", with_change(RATE_DOCS["subpoly_rate"], "params.mixing.a", -1.0),
        "error: mixing amplitude must be nonnegative"),
    "NaN mixing exponent (subpoly rate)": (
        "bound", with_change(RATE_DOCS["subpoly_rate"], "params.mixing.gamma", NAN),
        "error: mixing exponent must exceed 1"),
    # rates that divide by b or gamma: zero used to end in a ZeroDivisionError traceback
    "zero rate (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing.b", 0.0),
        "error: mixing rate and exponent must be positive, got b=0.0, gamma=1.0"),
    "zero exponent (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing.gamma", 0.0),
        "error: mixing rate and exponent must be positive, got b=0.7, gamma=0.0"),
    "negative rate (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing.b", -5.0),
        "error: mixing rate and exponent must be positive, got b=-5.0, gamma=1.0"),
    "NaN C (subexp rate)": (
        "bound", dict(RATE_DOCS["subexp_rate"], C=NAN), "error: the universal constant C"),
    "NaN t (beta deviation)": (
        "bound", dict(GOLDEN_DOCS["bound-beta-deviation"], t=NAN), "error: t must be nonnegative"),
    "NaN t (indep deviation)": (
        "bound", dict(GOLDEN_DOCS["bound-beta-deviation"], bound="indep_deviation", t=NAN),
        "error: t must be nonnegative"),
    "NaN bias (weak error)": (
        "bound", dict(BOUND_DOC, bias=NAN), "error: bias must be nonnegative"),
    "NaN t_grid point": (
        "simulate", with_change(experiment_doc(), "t_grid", [0.9, NAN]),
        "error: t must be nonnegative"),
    "NaN radius (sauer_shelah)": (
        "entropy", {"entropy": "sauer_shelah", "V": 1, "B": 1.0, "r": NAN},
        "error: radius must be positive"),
    "NaN B (regress)": (
        "regress", dict(GOLDEN_DOCS["regress-affine-span"], B=NAN), "error: B must be positive"),
    # horizons whose marginals pass the cell cap: 1e300 used to die in a numpy traceback
    "horizon of 1e300": ("beta", dict(BETA_DOC, horizon=1e300), f"error: horizon {int(1e300)} needs"),
    # a weak-error size floor past exp's range used to end in an OverflowError traceback
    "weak-error size floor past exp's range": (
        "bound", with_change(BOUND_DOC, "params.c", 100.0),
        "error: floor(n/m) >= exp((c^2-71)/(4V)) violated: 500 < inf"),
    # a block power past float range used to end in an OverflowError traceback
    "subexp block past float range": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.mixing", dict(SUBEXP, b=1e-300, gamma=0.001)),
        "error: 1 <= (2 log n / b)^(1/gamma) <= n/2 violated: got inf for n=1000"),
    # an n past float range (JSON reads it as an exact int) used to end in an OverflowError traceback
    "n past float range (weak error)": (
        "bound", with_change(BOUND_DOC, "params.n", 10**400), "error: n must be at most the largest float"),
    "n past float range (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.n", 10**400),
        "error: n must be at most the largest float"),
    "n past float range (subpoly rate)": (
        "bound", with_change(RATE_DOCS["subpoly_rate"], "params.n", 10**400),
        "error: n must be at most the largest float"),
    # integers past float range used to end in an OverflowError traceback; a weak-error V made
    # the size floor read inf instead, where that floor tends to 1 as V grows
    "V past float range (sauer_shelah)": (
        "entropy", dict(GOLDEN_DOCS["entropy-sauer-shelah"], V=10**400), "error: V must be at most the largest float"),
    "N past float range (neural_net)": (
        "entropy", dict(GOLDEN_DOCS["entropy-neural-net"], N=10**400), "error: N must be at most the largest float"),
    "d past float range (neural_net)": (
        "entropy", dict(GOLDEN_DOCS["entropy-neural-net"], d=10**400), "error: d must be at most the largest float"),
    "size past float range (indep deviation)": (
        "bound", dict(GOLDEN_DOCS["bound-beta-deviation"], bound="indep_deviation", size=10**400),
        "error: size must be at most the largest float"),
    "V past float range (subexp rate)": (
        "bound", with_change(RATE_DOCS["subexp_rate"], "params.V", 10**400),
        "error: V must be at most the largest float"),
    "V past float range (subpoly rate)": (
        "bound", with_change(RATE_DOCS["subpoly_rate"], "params.V", 10**400),
        "error: V must be at most the largest float"),
    "V past float range (weak error)": (
        "bound", with_change(BOUND_DOC, "params.V", 10**400), "error: V must be at most the largest float"),
    # experiments whose marginal laws pass the cell cap: 1e300 used to die in a numpy traceback
    "n of 1e300": ("verify", with_change(CRITERION7_DOC, "params.n", 1e300), f"error: n {int(1e300)} needs"),
    "n one past the cap": (
        "simulate", with_change(CRITERION7_DOC, "params.n", CELL_CAP // 2 + 1),
        f"error: n {CELL_CAP // 2 + 1} needs {CELL_CAP + 2} marginal cells, above cap {CELL_CAP}"),
    "horizon one past the cap": (
        "beta", dict(BETA_DOC, horizon=CELL_CAP // 2 + 1),
        f"error: horizon {CELL_CAP // 2 + 1} needs {CELL_CAP + 2} marginal cells, above cap {CELL_CAP}"),
    # m_dependent sizes past the cap: 3e7 states used to take 40 s and 5.5 GB before exiting 1,
    # a lag of 1e15 to die in numpy's _ArrayMemoryError traceback
    "alphabet past the cap": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.alphabet_size", 3 * 10**7),
        f"error: dependence_lag and alphabet_size must be at most {CELL_CAP}, got 2 and 30000000"),
    "dependence lag of 1e15": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.dependence_lag", 10**15),
        f"error: dependence_lag and alphabet_size must be at most {CELL_CAP}, got {10**15} and 4"),
    # the weak-error experiment checks its inputs once, before any draw
    "no replications (verify weak error)": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "replications", 0),
        "error: replications must be >= 1\n"),
    # phi + noise reaches 0.2: the spec checks every response it can draw against the declared bound
    "responses past the declared bound (verify weak error)": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "generator.response_bound", 0.15),
        "error: responses exceed the declared bound 0.15\n"),
    # a deviation run reads no response, yet its spec refuses one past the bound: this used to exit 0
    "responses past the declared bound (verify deviation)": (
        "verify", with_change(with_change(experiment_doc(), "generator.phi", {"0": 0.0, "1": 0.5}),
                              "generator.response_bound", 0.25),
        "error: responses exceed the declared bound 0.25\n"),
    # a NaN truth used to be drawn and fitted for every replication, then named as a NaN bias;
    # an infinite one to end in a traceback under -W error
    "NaN truth (verify weak error)": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "truth.1", NAN),
        "error: truth must be finite\n"),
    "infinite truth (verify weak error)": (
        "verify", with_change(GOLDEN_DOCS["simulate-mdep-weak-error"], "truth.1", float("inf")),
        "error: truth must be finite\n"),
    # a greedy cover used to build every member's differences to every other at once
    "greedy cover past the cap": (
        "entropy", {"entropy": "greedy_cover", "r": 0.5, "values": [[float(i)] for i in range(1001)]},
        f"error: 1001 members need 1002001 distance cells, above cap {CELL_CAP}"),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_ERRORS))
def test_domain_error_exits_one(tmp_path, capsys, case):
    command, doc, message = DOMAIN_ERRORS[case]
    code, out, err = run(capsys, [command, write(tmp_path, "bad.json", doc)])
    assert code == 1
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("seed", ["-1", str(2**63), str(2**64)])
def test_out_of_range_seed_flag_exits_one(tmp_path, capsys, command, seed):
    # -1 used to run with numpy's platform cast of the key, 2**64 to die in an OverflowError
    code, out, err = run(capsys, [command, write(tmp_path, "exp.json", experiment_doc()), "--seed", seed])
    assert code == 1
    assert out == ""
    assert err == f"error: seed must be in [0, 2**63), got {seed}\n"


# (arguments, message) of partitions too long to list
LONG_PARTITIONS = {
    "partition one past the cap": (
        ["partition", str(CELL_CAP + 1), "3"],
        f"error: partition of {CELL_CAP + 1} indices is above the listing cap {CELL_CAP}\n"),
    "partition of 1e18": (
        ["partition", str(10**18), "3"],
        f"error: partition of {10**18} indices is above the listing cap {CELL_CAP}\n"),
}


@pytest.mark.parametrize("case", sorted(LONG_PARTITIONS) + [
    "alphabet past the cap", "dependence lag of 1e15", "greedy cover past the cap"])
def test_size_errors_exit_one_before_allocating(tmp_path, capsys, case):
    if case in LONG_PARTITIONS:
        argv, message = LONG_PARTITIONS[case]
    else:
        command, doc, message = DOMAIN_ERRORS[case]
        argv = [command, write(tmp_path, "large.json", doc)]
    build_parser()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith(message)
    assert peak < 2**20


def stub_report(rows):
    report = simulate.ExperimentReport(tuple(rows), {"seed": 1, "replications": 10})
    return lambda *args: report


# (document, experiment, report rows, message): the first row that is not dominant is named
FAILING_REPORTS = {
    "deviation": (
        experiment_doc(), "deviation_experiment",
        [{"t": 0.3, "frequency": 0.0, "stderr": 0.01, "bound": 0.5, "dominant": True},
         {"t": 0.4, "frequency": 0.6, "stderr": 0.02, "bound": 0.5, "dominant": False},
         {"t": 0.5, "frequency": 0.6, "stderr": 0.02, "bound": 0.4, "dominant": False}],
        "dominance violated at t=0.4: frequency + 3*stderr exceeds the bound\n"),
    "weak_error": (
        GOLDEN_DOCS["simulate-mdep-weak-error"], "weak_error_experiment",
        [{"n": 100, "weak_error": 0.9, "stderr": 0.001, "bound_total": 0.5, "dominant": False},
         {"n": 400, "weak_error": 0.8, "stderr": 0.001, "bound_total": 0.5, "dominant": False}],
        "dominance violated at n=100: weak_error exceeds bound_total + 3*stderr\n"),
}


@pytest.mark.parametrize("kind", sorted(FAILING_REPORTS))
def test_verify_names_the_rule_and_the_first_failing_row(tmp_path, capsys, monkeypatch, kind):
    doc, experiment, rows, message = FAILING_REPORTS[kind]
    monkeypatch.setattr(simulate, experiment, stub_report(rows))
    code, out, err = run(capsys, ["verify", write(tmp_path, "exp.json", doc)])
    assert code == 1
    assert out == json.dumps({"metadata": {"seed": 1, "replications": 10}, "rows": rows}, indent=2) + "\n"
    assert err == message
