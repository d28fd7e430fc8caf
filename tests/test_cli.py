import hashlib
import json
import math

import numpy as np
import pytest

from betamix.cli import main


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
    "bound-weak-error": {
        "bound": "weak_error",
        "params": params_doc(B=0.25, V=3, n=800, m=4,
                             mixing={"model": "subexponential", "a": 0.5, "b": 0.7, "gamma": 1.0}),
        "bias": 0.0125,
    },
}
# sha256 of stdout for each (document, command, extra arguments): any change
# to the output bytes for a fixed (config, seed) fails
GOLDEN = {
    ("beta-chain", "beta", ()):
        "8d3bef6647d9616ed37fbe1d31284119c55656da31b8ccf57f031840460440df",
    ("bound-weak-error", "bound", ()):
        "f96a90cba988c84fe344665719ce58879c7435d4cb2c0acc6676c84ac942cc0b",
    ("couple-joint", "couple", ()):
        "eaa184729f1aa209084ec837bb101fa2ad9fe781424961de7effc2bf63b4c8f6",
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
        "ef608ec42eb118355ea141ef01990e501d8ccb50997af63bffdbba94e483e80f",
    ("simulate-mdep-weak-error", "simulate", ("--seed", "9")):
        "eb4e1baa62bc244f7936425afc2f1c2655e101fd99ba0183171beb738a6cc54d",
}


@pytest.mark.parametrize(
    "name,command,extra", sorted(GOLDEN), ids=[" ".join((k[0],) + k[2]) for k in sorted(GOLDEN)]
)
def test_golden_stdout_bytes(tmp_path, capsys, name, command, extra):
    cfg = write(tmp_path, f"{name}.json", GOLDEN_DOCS[name])
    code, out, err = run(capsys, [command, cfg, *extra])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(name, command, extra)]


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
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_two_naming_the_field(tmp_path, capsys, case):
    command, doc, field = CONFIG_ERRORS[case]
    code, out, err = run(capsys, [command, write(tmp_path, "bad.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {field}")


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
