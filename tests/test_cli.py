import hashlib
import json
import math

import numpy as np
import pytest

import penseq.estimator
from penseq import MonoscaleFit, MultiresSequence
from penseq import cli
from penseq.cli import PRESETS, ExperimentConfig, main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "gamma": {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5},
        "radius": 1.0,
        "penalty": {"zeta": 2.0, "nu": 40.0, "xi1": 1.0},
        "noise": {"covariance": "identity"},
        "signal": {"kind": "shell_dense"},
        "epsilons": [2.0 ** -6, 2.0 ** -7, 2.0 ** -8, 2.0 ** -9],
        "replicates": 5,
        "seed": 4242,
    }
    doc.update(overrides)
    return doc


# Numeric fields written as integers, and the echo they must give: a float
# where the spec field's default is a float, the value as written elsewhere.
INTEGER_VALUED = {
    "gamma": {"alpha": 1, "p": 2, "q": 2, "beta": 0}, "radius": 1,
    "penalty": {"zeta": 2, "nu": 40, "xi1": 3},
    "noise": {"covariance": "tridiagonal", "rho": 0, "xi1": 3},
    "signal": {"kind": "besov_spread", "xi0": 2},
    "epsilons": [0.25, 0.125, 0.0625, 0.03125], "epsilon": 0.125,
    "replicates": 3.0, "seed": 5, "jmax": 6,
}
INTEGER_VALUED_ECHO = (
    '{"epsilon": 0.125, "epsilons": [0.25, 0.125, 0.0625, 0.03125], '
    '"gamma": {"alpha": 1.0, "beta": 0.0, "p": 2.0, "q": 2.0}, "jmax": 6, '
    '"noise": {"covariance": "tridiagonal", "rho": 0.0, "xi0": null, "xi1": 3}, '
    '"penalty": {"beta": 0.0, "jeps_scale": 1.0, "nu": 40.0, "xi1": 3.0, "zeta": 2.0}, '
    '"radius": 1.0, "replicates": 3, "schema_version": 1, "seed": 5, '
    '"signal": {"kind": "besov_spread", "placement": "even", "rho1": 1.05, '
    '"rho2": 1.25, "xi0": 2.0}, "zone": null}')

# SHA-256 of json.dumps(PRESETS, sort_keys=True): the preset documents are fixed
PRESETS_SHA256 = "aa75a09e30bededd3013ea321cd50ddce667ef46b8b8a62d9344b147574dafdf"


class TestExperimentConfig:
    def test_presets_all_parse(self):
        for name, doc in PRESETS.items():
            cfg = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
            assert cfg.resolved_dict()["schema_version"] == 1

    def test_preset_documents_unchanged(self):
        text = json.dumps(PRESETS, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESETS_SHA256

    @pytest.mark.parametrize("doc", [*PRESETS.values(), INTEGER_VALUED],
                             ids=[*PRESETS, "integer-valued"])
    def test_resolved_dict_round_trip(self, doc):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
        assert ExperimentConfig.from_dict(cfg.resolved_dict()) == cfg

    def test_integer_valued_echo_bytes(self):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(INTEGER_VALUED)))
        assert json.dumps(cfg.resolved_dict(), sort_keys=True) == INTEGER_VALUED_ECHO

    def test_unknown_field_rejected(self):
        from penseq import ValidationError
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(base_config(bogus=1))

    def test_cross_validation(self):
        from penseq import ValidationError
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(base_config(epsilons=[2.0]))
        with pytest.raises(ValidationError):
            doc = base_config()
            doc["signal"]["kind"] = "shell_sparse"     # p = 2
            ExperimentConfig.from_dict(doc)
        with pytest.raises(ValidationError):
            doc = base_config()
            doc["penalty"]["beta"] = 0.0               # mismatch with gamma
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("section, field, value", [
        ("gamma", "alpha", "one"),
        (None, "replicates", "many"),
        ("penalty", "zeta", "two"),
        (None, "gamma", [1, 2]),
        ("noise", "xi0", "x"),
        (None, "replicates", 2.7),
        (None, "seed", 1.9),
        (None, "seed", -1),
        (None, "seed", True),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, section, field, value):
        doc = base_config(epsilon=2.0 ** -8)
        (doc if section is None else doc[section])[field] = value
        cfg = write_config(tmp_path, doc)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 2
        name = field if section is None else f"{section}.{field}"
        assert f"{name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "1.0", "3"])
    @pytest.mark.parametrize("section, field", [
        ("gamma", "alpha"), ("gamma", "p"), ("gamma", "q"), ("gamma", "beta"),
        (None, "radius"), ("penalty", "zeta"), ("penalty", "nu"), ("penalty", "beta"),
        ("penalty", "xi1"), ("penalty", "jeps_scale"), ("noise", "rho"), ("noise", "xi0"),
        ("noise", "xi1"), ("signal", "xi0"), ("signal", "rho1"), ("signal", "rho2"),
        ("epsilons", 0), (None, "epsilon"), (None, "replicates"), (None, "seed"),
    ])
    def test_bool_or_string_number_exit_2(self, tmp_path, capsys, section, field, value):
        # a JSON number is an int or a float: float() and int() alone would read
        # true as 1 and "1.0" as 1.0
        doc = base_config(epsilon=2.0 ** -8)
        (doc if section is None else doc[section])[field] = value
        out = tmp_path / "o"
        assert main(["rates", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        name = {None: field, "epsilons": "epsilons entry"}.get(section, f"{section}.{field}")
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", ["banana", 2, 1.0, True, None])
    def test_schema_version_other_than_1_exit_2(self, tmp_path, capsys, version):
        doc = base_config(epsilon=2.0 ** -8, schema_version=version)
        out = tmp_path / "o"
        assert main(["rates", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert f"schema_version must be 1, got {version!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "estimate"])
    @pytest.mark.parametrize("section, field", [
        (None, "radius"), ("signal", "xi0"), ("signal", "rho1"), ("signal", "rho2"),
        ("penalty", "xi1"), ("penalty", "jeps_scale"), ("noise", "xi0"), ("noise", "xi1"),
    ])
    def test_infinite_value_exit_2(self, tmp_path, capsys, section, field, command):
        # json reads Infinity and NaN but the output writers refuse them, so the load must
        for value in (float("inf"), float("nan")):
            doc = base_config(epsilon=2.0 ** -8)
            (doc if section is None else doc[section])[field] = value
            seq = tmp_path / "seq.json"
            seq.write_text(MultiresSequence.zeros(1, 4).to_json())
            out = tmp_path / "o"
            argv = [command, *([str(seq)] if command == "estimate" else []),
                    "--config", write_config(tmp_path, doc), "--out", str(out)]
            assert main(argv) == 2
            assert f"{field} must be a finite number, got {value}" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_gamma_field_exit_2(self, tmp_path, capsys):
        # a misspelt key would otherwise leave beta at its default 0
        doc = json.loads(json.dumps(PRESETS["dense"]))
        doc["gamma"] = {"alpha": 1.0, "p": 2.0, "q": 2.0, "Beta": 0.5}
        out = tmp_path / "o"
        assert main(["rates", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "unknown gamma fields: ['Beta']" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_zero_sequence(self, tmp_path):
        seq = MultiresSequence.zeros(1, 4)
        inp = tmp_path / "seq.json"
        inp.write_text(seq.to_json())
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6))
        code = main(["estimate", str(inp), "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["schema_version"] == 1
        assert all(not any(level) for level in doc["fit"]["levels"])
        assert all(m["k_hat"] == 0 for m in doc["fit"]["per_level"])
        # input file untouched
        assert inp.read_text() == seq.to_json()

    def test_malformed_level_length(self, tmp_path, capsys):
        inp = tmp_path / "seq.json"
        inp.write_text(json.dumps({"j0": 1, "levels": [[0.0, 1.0, 2.0]]}))
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6))
        code = main(["estimate", str(inp), "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "level length" in capsys.readouterr().err

    def test_epsilon_at_or_above_radius_exit_2(self, tmp_path, capsys):
        seq = tmp_path / "seq.json"
        seq.write_text(MultiresSequence.zeros(1, 4).to_json())
        doc = base_config(radius=0.5, epsilons=[2.0 ** -6], epsilon=0.5)
        cfg = write_config(tmp_path, doc)
        code = main(["estimate", str(seq), "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "epsilon < radius" in capsys.readouterr().err

    def test_overflowing_input_exit_3(self, tmp_path, capsys):
        inp = tmp_path / "seq.json"
        inp.write_text(json.dumps({"j0": 1, "levels": [[1e200, 0.0], [0.0] * 4]}))
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6))
        code = main(["estimate", str(inp), "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "level j=1: max|y| = 1e+200" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_invalid_gamma_exit_2(self, tmp_path, capsys):
        # estimate uses no rate theory, yet gamma must meet the rate hypotheses
        seq = tmp_path / "seq.json"
        seq.write_text(MultiresSequence.zeros(1, 4).to_json())
        doc = base_config(gamma={"alpha": 0.4, "p": 1.0, "q": 1.0, "beta": 0.2},
                          epsilon=2.0 ** -6)
        doc["signal"]["kind"] = "zero"
        cfg = write_config(tmp_path, doc)
        assert main(["estimate", str(seq), "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "compactness requires" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("doc, field", [
        ({"j0": 1, "levels": 5}, "levels"),
        ({"j0": 1, "levels": "ab"}, "levels"),
        ({"j0": 1, "levels": [[{"a": 1}, 2]]}, "levels"),
        ({"j0": 1, "levels": [["1", "2"]]}, "levels"),
        ({"j0": True, "levels": [[0.0, 0.0]]}, "j0"),
        ({"j0": 1, "levels": [[0.0, 0.0]], "jmax": 1}, "jmax"),
        ({"j0": 1, "levels": [[10 ** 400, 0], [0] * 4]},
         "level 1 has a coefficient outside the float range"),
    ], ids=["levels-number", "levels-string", "level-object", "level-strings", "j0-bool",
            "unknown-key", "integer-past-float-range"])
    def test_malformed_sequence_exit_2(self, tmp_path, capsys, doc, field):
        inp = tmp_path / "seq.json"
        inp.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6))
        out = tmp_path / "o"
        assert main(["estimate", str(inp), "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6))
        code = main(["estimate", str(tmp_path / "nope.json"), "--config", cfg,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "input sequence not found" in capsys.readouterr().err


class TestSweep:
    def test_deterministic_rerun(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()
        assert (out1 / "sweep.json").read_text() == (out2 / "sweep.json").read_text()

    def test_summary_fields_and_rows_sorted(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert {"slope", "intercept", "r_hat", "r_theory", "relative_error",
                "log_corrected"} <= set(doc["summary"])
        eps = [row["epsilon"] for row in doc["rows"]]
        assert eps == sorted(eps)
        assert doc["config"]["seed"] == 4242

    def test_threads_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "dense", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_single_epsilon_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_config(epsilons=[2.0 ** -6]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_level_scale_overflow_exit_3(self, tmp_path, capsys):
        # eps_j = eps * 2^(beta*j) leaves the float range at beta = 100, j = 11
        doc = json.loads(json.dumps(PRESETS["dense"]))
        doc["gamma"]["beta"] = 100.0
        doc.update(jmax=11, replicates=2)
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert "level j=11: " in capsys.readouterr().err
        assert not out.exists()

    def test_zero_signal_exit_2_before_monte_carlo(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran")
        monkeypatch.setattr(cli, "mc_risk_for_truth", forbidden)
        out = tmp_path / "o"
        assert main(["sweep", "--preset", "zero", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot fit a rate to a zero signal" in err
        assert "'rates' and 'oracle-check' accept it" in err
        assert not out.exists()

    @pytest.mark.parametrize("epsilons, message", [
        ([2.0 ** -12, 2.0 ** -12, 2.0 ** -11, 2.0 ** -11, 2.0 ** -12],
         "need at least 4 distinct epsilon values"),
        ([2.0 ** -12, 2.0 ** -11.5, 2.0 ** -11.2, 2.0 ** -11],
         "epsilon grid must span at least 2 octaves"),
    ], ids=["two-distinct", "one-octave"])
    def test_grid_the_fit_rejects_exit_2_before_monte_carlo(self, tmp_path, capsys,
                                                              monkeypatch, epsilons, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran")
        monkeypatch.setattr(cli, "mc_risk_for_truth", forbidden)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, base_config(epsilons=epsilons))
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["config"]["seed"] == 7


class TestRates:
    def test_critical_report(self, tmp_path):
        doc = base_config(gamma={"alpha": 1.0, "p": 1.0, "q": 2.0, "beta": 0.5},
                          epsilon=2.0 ** -8)
        doc["signal"]["kind"] = "critical_prior"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "rate_report.json").read_text())["report"]
        assert rep["zone"] == "Critical"
        assert rep["r"] == pytest.approx(0.5)

    def test_profile_shape(self, tmp_path):
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -8))
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "shell_profile.csv").read_text().strip().splitlines()
        assert lines[0] == "j,R_j,zone_label"
        vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
        peak = int(np.argmax(vals))
        assert 0 < peak < vals.size - 1
        assert np.all(np.diff(vals[:peak + 1]) > 0)
        assert np.all(np.diff(vals[peak + 1:]) < 0)

    @pytest.mark.parametrize("beta, epsilon", [(300.0, 0.5), (100.0, 1e-300)],
                             ids=["profile-overflow", "peak-overflow"])
    def test_overflowing_shell_risk_exit_3(self, tmp_path, capsys, beta, epsilon):
        # eps_j and R_star past the float range: no nan rows, no OverflowError
        doc = base_config(gamma={"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": beta},
                          signal={"kind": "zero"}, epsilon=epsilon)
        out = tmp_path / "o"
        assert main(["rates", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert "overflows at beta=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value", [
        ("signal", "kind", "bogus"),
        ("signal", "placement", "weird"),
        ("signal", "placement", "head"),
        ("signal", "xi0", -1),
        (None, "jmax", 2.5),
        (None, "jmax", True),
        (None, "jmax", "6"),
    ])
    def test_malformed_signal_exit_2(self, tmp_path, capsys, section, field, value):
        # rates builds no signal, so only the load-time check can catch these
        doc = json.loads(json.dumps(PRESETS["dense"]))
        (doc if section is None else doc[section])[field] = value
        cfg = write_config(tmp_path, doc)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "rate_report.json").exists()
        assert field in capsys.readouterr().err

    def test_critical_prior_off_the_critical_zone_exit_2(self, tmp_path, capsys):
        # the signal would be rejected when built, so the config fails at load
        doc = base_config(gamma={"alpha": 1.01, "p": 1.0, "q": 2.0, "beta": 0.5},
                          epsilon=2.0 ** -8)
        doc["signal"]["kind"] = "critical_prior"
        cfg = write_config(tmp_path, doc)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "rate_report.json").exists()
        assert "critical zone" in capsys.readouterr().err

    def test_zone_key_rejected(self, tmp_path, capsys):
        # the zone follows from gamma; a config cannot declare one
        doc = json.loads(json.dumps(PRESETS["dense"]))
        doc["zone"] = "Critical"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "zone" in capsys.readouterr().err

    def test_invalid_gamma_exit_2(self, tmp_path):
        doc = base_config(gamma={"alpha": 0.4, "p": 1.0, "q": 1.0, "beta": 0.2},
                          epsilon=2.0 ** -8)
        doc["signal"]["kind"] = "zero"
        cfg = write_config(tmp_path, doc)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 2


def keep_everything(y, cfg, epsilon, nu_eff=None):
    """A stand-in for select_k that keeps every coefficient."""
    y = np.array(y, dtype=float)
    return MonoscaleFit(y.size, 0.0, y, 0.0)


def universal_threshold(y, cfg, epsilon, nu_eff=None):
    """A stand-in for select_k: hard threshold at epsilon * sqrt(2 log max(n, 2))."""
    y = np.array(y, dtype=float)
    t = epsilon * math.sqrt(2.0 * math.log(max(y.size, 2)))
    kept = np.abs(y) > t
    return MonoscaleFit(int(kept.sum()), t, np.where(kept, y, 0.0), 0.0)


class TestOracleCheck:
    def test_passes_with_seed_echo(self, tmp_path):
        doc = base_config(epsilon=2.0 ** -6, replicates=5)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "oracle_check.json").read_text())
        assert rep["seed"] == 4242
        assert rep["equivalence"] == {"instances": 12000, "mismatches": 0}
        assert rep["oracle_inequality"]["ratio"] <= 1.0

    def test_preset_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["oracle-check", "--preset", "zero", "--out", str(out),
                     "--replicates", "5"]) == 0

    def test_reports_a_mismatch(self, tmp_path, monkeypatch, capsys):
        # the first instance (n = 1, y ~ N(0, 1)) is kept whole by a wrong
        # oracle while select_k keeps nothing: the keep-nothing shortcut must
        # not hide the difference
        real, calls = cli.subset_oracle, []

        def wrong_once(y, cfg, epsilon, nu_eff=None):
            calls.append(y)
            indices, objective = real(y, cfg, epsilon, nu_eff)
            return ((0,) if len(calls) == 1 else indices), objective

        monkeypatch.setattr(cli, "subset_oracle", wrong_once)
        doc = base_config(epsilon=2.0 ** -6, replicates=5)
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        penalty = ExperimentConfig.from_dict(doc).penalty
        assert cli.select_k(calls[0], penalty, 1.0).k_hat == 0
        rep = json.loads((out / "oracle_check.json").read_text())
        assert rep["equivalence"] == {"instances": 12000, "mismatches": 1}
        assert "1 mismatches" in capsys.readouterr().err

    def test_level_weight_past_the_float_range_runs(self, tmp_path):
        # at alpha = 1040.5 the level weight 2^(a*q*j) overflows from j = 1; the
        # signal scaled into the unit ball, and so its norm, stays finite
        doc = {"gamma": {"alpha": 1040.5, "p": 1, "q": 1, "beta": 0.5},
               "signal": {"kind": "besov_spread"}, "epsilon": 0.01, "replicates": 2}
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert json.loads((out / "oracle_check.json").read_text())["oracle_inequality"]["holds"]

    @pytest.mark.parametrize("preset", ["sparse", "dense"])
    @pytest.mark.parametrize("stand_in", [None, keep_everything, universal_threshold],
                             ids=["select_k", "keep-everything", "universal-threshold"])
    def test_stand_in_estimators_fail(self, tmp_path, monkeypatch, capsys, preset, stand_in):
        # two wrong estimators in place of select_k, in the Monte Carlo fit and in
        # the equivalence batch: oracle-check rejects each and passes select_k.
        # The equivalence count rejects both; the oracle inequality alone rejects
        # only keep-everything on sparse.  Keep-nothing still passes (ROADMAP item 2)
        if stand_in is not None:
            monkeypatch.setattr(penseq.estimator, "select_k", stand_in)
            monkeypatch.setattr(cli, "select_k", stand_in)
        code = main(["oracle-check", "--preset", preset, "--replicates", "2",
                     "--out", str(tmp_path)])
        assert code == (cli.EXIT_OK if stand_in is None else cli.EXIT_CHECK_FAILED)

    def test_unsummable_nu_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        # nu = 1.5 is a valid penalty for select_k, but the bound's complexity
        # sums need nu > e^(1/(1+2*beta)) = e^0.5: refused before the
        # equivalence batch and the Monte Carlo run, and no file is written
        def no_work(*args, **kwargs):
            raise AssertionError("oracle-check did work before refusing nu")

        monkeypatch.setattr(cli, "select_k", no_work)
        monkeypatch.setattr(cli, "oracle_inequality_check", no_work)
        doc = base_config(epsilon=2.0 ** -6, penalty={"zeta": 2.0, "nu": 1.5, "xi1": 1.0})
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "complexity sums need nu > e^(1/(1+2*beta)) = 1.648721, got 1.5" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_no_epsilon_and_empty_grid_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(epsilons=[]))
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "single 'epsilon'" in capsys.readouterr().err

    def test_no_epsilon_and_two_point_grid_exit_2(self, tmp_path, capsys):
        # rates and estimate reject this config too; no command picks a grid point
        cfg = write_config(tmp_path, base_config(epsilons=[2.0 ** -6, 2.0 ** -7]))
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 2
        assert "single 'epsilon'" in capsys.readouterr().err
        assert not (out / "oracle_check.json").exists()

    def test_unknown_preset(self, tmp_path):
        assert main(["sweep", "--preset", "nope", "--out", str(tmp_path)]) == 2


class TestRunValues:
    """Every run value comes from the config; the output echoes it whole."""

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--preset", "sparse", "--instances", "240"],
        ["rates", "--preset", "dense", "--seed", "1"],
        ["estimate", "seq.json", "--preset", "dense", "--replicates", "3"],
    ], ids=["oracle-check-instances", "rates-seed", "estimate-replicates"])
    def test_removed_option_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["rates", "estimate", "oracle-check"])
    def test_no_epsilon_and_one_point_grid_exit_2(self, tmp_path, capsys, command):
        # epsilon is the one source of a single-epsilon command's epsilon
        seq = tmp_path / "seq.json"
        seq.write_text(MultiresSequence.zeros(1, 4).to_json())
        cfg = write_config(tmp_path, base_config(epsilons=[2.0 ** -6]))
        out = tmp_path / "o"
        argv = [command, *([str(seq)] if command == "estimate" else []),
                "--config", cfg, "--out", str(out)]
        assert main(argv) == 2
        assert "needs a single 'epsilon'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rates", "--preset", "sparse"],
        ["sweep", "--preset", "dense", "--replicates", "4"],
        ["oracle-check", "--preset", "sparse", "--replicates", "5"],
    ], ids=["rates", "sweep", "oracle-check"])
    def test_rerun_on_echoed_config_reproduces_outputs(self, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv + ["--out", str(first)]) == 0
        (report,) = first.glob("*.json")
        echoed = write_config(tmp_path, json.loads(report.read_text())["config"])
        assert main([argv[0], "--config", echoed, "--out", str(second)]) == 0
        written = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == written
        for name in written:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


class TestInputFiles:
    def test_config_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["rates", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(base_config(epsilon=2.0 ** -8)).encode("utf-16"))
        out = tmp_path / "o"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"cannot read config file {cfg}" in capsys.readouterr().err
        assert not out.exists()

    def test_sequence_directory_exit_2(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        out = tmp_path / "o"
        assert main(["estimate", str(seq), "--preset", "dense", "--out", str(out)]) == 2
        assert f"cannot read input sequence {seq}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["rates", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert f"config file not found: {missing}" in capsys.readouterr().err


class TestOutputFiles:
    @pytest.mark.parametrize("command, out", [
        ("estimate", "file/sub"), ("sweep", "file"), ("rates", "file/sub"),
        ("oracle-check", "file"), ("sweep", "csv-taken"), ("rates", "csv-taken")])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command, out):
        # out is an existing file, a path below one, or a directory where the
        # CSV file's name is taken by a directory; there the JSON written
        # before the CSV is removed again
        seq = tmp_path / "seq.json"
        seq.write_text(MultiresSequence.zeros(1, 4).to_json())
        (tmp_path / "file").write_text("")
        csv = {"sweep": "sweep.csv", "rates": "shell_profile.csv"}.get(command)
        if out == "csv-taken":
            (tmp_path / out / csv).mkdir(parents=True)
        cfg = write_config(tmp_path, base_config(epsilon=2.0 ** -6, replicates=2))
        argv = [command, *([str(seq)] if command == "estimate" else []),
                "--config", cfg, "--out", str(tmp_path / out)]
        assert main(argv) == 2
        target = tmp_path / out / (csv if out == "csv-taken" else "")
        assert f"cannot write output file {target}" in capsys.readouterr().err
        if out == "csv-taken":
            assert [p.name for p in (tmp_path / out).iterdir()] == [csv]
