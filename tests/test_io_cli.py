"""State-file round trips and the batch command line interface."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrand import (
    DensityMatrix,
    PureState,
    RoofConfig,
    maximally_coherent_state,
    pure_state,
    random_density,
    sample_measurement,
)
from cohrand import _kernels, cli, roof
from cohrand.cli import _emit, build_parser, main
from cohrand.errors import CohrandError, NotFinite, NotPSD
from cohrand.stateio import (
    LAYOUTS,
    load_state,
    pure_to_dict,
    save_state,
)

SRC = str(Path(cli.__file__).resolve().parents[1])


# Malformed state files that once escaped load_state as a TypeError or a
# KeyError, or (a non-integer or boolean dim) were read as another
# dimension, instead of raising a ValueError.
MALFORMED = {
    "not_an_object": "7",
    "missing_dim": '{"amplitudes": [[1, 0], [0, 0]]}',
    "bloch_not_a_list": '{"bloch": 5}',
    "null_dim": '{"dim": null, "amplitudes": [[1, 0], [0, 0]]}',
    "bloch_component_not_a_number": '{"bloch": [[1], 0, 0]}',
    "fractional_dim": '{"dim": 2.5, "amplitudes": [[1, 0], [0, 0]]}',
    "boolean_dim": '{"dim": true, "amplitudes": [[1, 0], [0, 0]]}',
    "two_layouts": '{"dim": 2, "amplitudes": [[1, 0], [0, 0]], "entries": 5}',
}

# Entries near the float limit, whose checks once overflowed with a numpy
# warning on stderr ahead of the JSON error: (file text, error, message).
OVERFLOWING = {
    "amplitude_norm": (
        '{"dim": 2, "amplitudes": [[1e200, 0], [0, 0]]}',
        "TraceNotOne",
        "|sum |a_i|^2 - 1| = inf > 1.0e-12",
    ),
    "trace": (
        '{"dim": 2, "entries": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}',
        "TraceNotOne",
        "|Tr rho - 1| = inf > 1.0e-10",
    ),
    "hermiticity": (
        '{"dim": 2, "entries": [[0.5, 0], [1e308, 0], [-1e308, 0], [0.5, 0]]}',
        "NotHermitian",
        "max |rho_ij - conj(rho_ji)| = inf > 1.0e-10",
    ),
}

# State-file numbers that are not JSON numbers or lie beyond float range.
# Each once escaped load_state as a TypeError or an OverflowError, loaded
# as a number, or printed a numpy warning ahead of the JSON error:
# (file text, error, message).
HUGE = "1" + "0" * 400
NOT_NUMBERS = {
    "object_entry": (
        '{"dim": 1, "entries": [[1, {}]]}',
        "ValueError",
        "entries must hold only numbers, got {}",
    ),
    "huge_int_entry": (
        f'{{"dim": 1, "entries": [[{HUGE}, 0]]}}',
        "NotFinite",
        "density matrix has a NaN or infinite entry",
    ),
    "huge_int_bloch": (
        f'{{"bloch": [-{HUGE}, 0, 0]}}',
        "NotFinite",
        "Bloch vector has a NaN or infinite entry",
    ),
    "string_amplitudes": (
        '{"dim": 1, "amplitudes": [["1", "0"]]}',
        "ValueError",
        "amplitudes must hold only numbers, got '1'",
    ),
    "boolean_entry": (
        '{"dim": 1, "entries": [[true, 0]]}',
        "ValueError",
        "entries must hold only numbers, got True",
    ),
    "string_beyond_float_range": (
        '{"dim": 1, "entries": [[1, "1e400"]]}',
        "ValueError",
        "entries must hold only numbers, got '1e400'",
    ),
    "infinite_imaginary_part": (
        '{"dim": 1, "entries": [[1, 1e400]]}',
        "NotFinite",
        "density matrix has a NaN or infinite entry",
    ),
}

# Derandomized draws and a fixed example budget: every run of a property
# test draws the same examples.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# Roof arguments out of range: argparse rejects each with exit code 2.
ROOF_ARGS_OUT_OF_RANGE = (
    ("--restarts", "0"),
    ("--restarts", "-2"),
    ("--seed", "-1"),
)

# Counts and seeds out of range, each after the rest of its command line:
# argparse rejects each with exit code 2.
ARGS_OUT_OF_RANGE = (
    (["verify"], "--samples", "0"),
    (["distill", "--alpha-sq", "0.5", "--exact"], "--n", "-5"),
    (["distill", "--alpha-sq", "0.5", "--n", "5"], "--m", "0"),
    (["sample", "x.json"], "--n", "0"),
    (["pipeline", "x.json"], "--groups", "0"),
    (["pipeline", "x.json"], "--group-n", "-1"),
    (["distill", "--alpha-sq", "0.5", "--n", "5"], "--seed", "-1"),
    (["sample", "x.json", "--n", "5"], "--seed", "-1"),
    (["pipeline", "x.json"], "--seed", "-1"),
)


@pytest.fixture
def plus_file(tmp_path):
    path = tmp_path / "plus.json"
    save_state(maximally_coherent_state(2), path)
    return str(path)


@pytest.fixture
def density_file(tmp_path):
    path = tmp_path / "rho.json"
    save_state(random_density(2, 2, seed=2), path)
    return str(path)


def cli_error(capsys) -> dict:
    """The JSON error object main wrote to stderr; stdout must be empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


class TestStateFiles:
    def test_density_round_trip(self, tmp_path):
        rho = random_density(3, 3, seed=0)
        path = tmp_path / "rho.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.allclose(loaded.mat, rho.mat)

    def test_pure_round_trip(self, tmp_path):
        psi = pure_state([0.6, 0.8j])
        path = tmp_path / "psi.json"
        save_state(psi, path)
        loaded = load_state(path)
        assert np.allclose(loaded.amps, psi.amps)

    def test_bloch_input(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"bloch": [0.3, 0.4, 0.2]}))
        rho = load_state(path)
        assert rho.dim == 2

    def test_invalid_density_raises_named_error(self, tmp_path):
        path = tmp_path / "bad.json"
        entries = [[1.5, 0], [0, 0], [0, 0], [-0.5, 0]]
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(NotPSD):
            load_state(path)

    def test_nan_amplitude_rejected(self, tmp_path):
        path = tmp_path / "nan_pure.json"
        path.write_text('{"dim": 2, "amplitudes": [[NaN, 0], [1, 0]]}')
        with pytest.raises(NotFinite):
            load_state(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_state(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
        with pytest.raises(ValueError):
            load_state(path)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_file_raises_value_error(self, case, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED[case])
        with pytest.raises(ValueError):
            load_state(path)


    def test_two_layouts_are_named(self, tmp_path):
        # The amplitudes once loaded and the entries were ignored.
        path = tmp_path / "two.json"
        path.write_text(MALFORMED["two_layouts"])
        with pytest.raises(ValueError, match="it holds entries and amplitudes$"):
            load_state(path)


# Numbers a state file may hold: a few small ones that make up valid states,
# any float (NaN and the infinities included, as json writes them), and
# integers beyond float range.
SMALL = st.sampled_from([0, 1, -1, 0.6, 0.8])
HUGE_INTS = st.integers(2**1024, 2**1100).flatmap(lambda n: st.sampled_from([n, -n]))
NUMBERS = st.one_of(SMALL, st.floats(), HUGE_INTS)
# Any JSON value: numbers, strings, booleans, null, and lists and objects.
VALUES = st.recursive(
    st.one_of(NUMBERS, st.text(max_size=4), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner),
    max_leaves=4,
)


@st.composite
def state_texts(draw):
    """A state file's text: a JSON object in one of the three layouts whose
    numbers are all SMALL, all NUMBERS or each any of VALUES. Now and then
    its field is one item short or long, a second layout joins it, or the
    text is cut short."""
    number = draw(st.sampled_from([SMALL, NUMBERS, VALUES]))
    layout = draw(st.sampled_from(LAYOUTS))
    dim = draw(st.integers(1, 3))
    size = {"entries": dim * dim, "amplitudes": dim, "bloch": 3}[layout]
    size = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    item = number if layout == "bloch" else st.lists(number, min_size=2, max_size=2)
    document = {layout: draw(st.lists(item, min_size=size, max_size=size))}
    if layout != "bloch":
        document["dim"] = dim
    if draw(st.integers(0, 5)) == 5:
        document[draw(st.sampled_from(LAYOUTS))] = document[layout]
    text = json.dumps(document)
    return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 5)) == 5 else text


@pytest.fixture(scope="module")
def state_file(tmp_path_factory):
    return tmp_path_factory.mktemp("states") / "state.json"


class TestStateProperties:
    @PROPERTY_SETTINGS
    @given(state_texts())
    def test_load_raises_only_named_errors(self, state_file, text):
        state_file.write_text(text)
        try:
            load_state(state_file)
        except (CohrandError, ValueError):
            pass

    @PROPERTY_SETTINGS
    @given(state_texts())
    def test_measures_exits_zero_or_three(self, state_file, text):
        # Exit 0 prints one JSON object; exit 3 prints one on stderr and
        # nothing on stdout. A numpy warning is raised as an error here, and
        # main does not catch it.
        state_file.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measures", str(state_file)])
        assert code in (0, 3)
        printed, silent = (out, err) if code == 0 else (err, out)
        assert isinstance(json.loads(printed.getvalue()), dict)
        assert silent.getvalue() == ""


class TestCli:
    def test_measures(self, plus_file, capsys):
        assert main(["measures", plus_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["l1"] == pytest.approx(1.0)
        assert out["r_pure"] == pytest.approx(1.0)
        assert out["qubit_analytic"] == pytest.approx(1.0)

    def test_incoherent_state_prints_positive_zero(self, tmp_path, capsys):
        # json.loads reads -0.0 as equal to 0.0, so the raw text is compared.
        path = tmp_path / "basis.json"
        save_state(pure_state([1.0, 0.0]), path)
        assert main(["measures", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"r_pure": 0.0,' in out and "-0.0" not in out
        assert main(["distill", "--alpha-sq", "1.0", "--n", "50", "--m", "200"]) == 0
        out = capsys.readouterr().out
        assert '"input_randomness": 0.0,' in out and '"loss_actual": 0.0,' in out
        assert "-0.0" not in out

    def test_measures_rejects_nan_entries(self, tmp_path, capsys):
        # Loading stops the NaN before any measure is computed, so no
        # invalid JSON ("l1": NaN) reaches stdout.
        path = tmp_path / "nan_rho.json"
        path.write_text('{"dim": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}')
        assert main(["measures", str(path)]) == 3
        error = cli_error(capsys)
        assert error["error"] == "NotFinite" and error["command"] == "measures"
        assert "NaN" in error["message"]

    @pytest.mark.parametrize("case", OVERFLOWING)
    def test_overflowing_input_leaves_one_json_object_on_stderr(self, case, tmp_path):
        # A fresh interpreter with its default warning filters: a numpy
        # warning would reach stderr ahead of the error, and json.loads
        # rejects anything but one object.
        text, name, message = OVERFLOWING[case]
        path = tmp_path / "big.json"
        path.write_text(text)
        pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        env.pop("PYTHONWARNINGS", None)
        argv = [sys.executable, "-m", "cohrand.cli", "measures", str(path)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 3 and out.stdout == ""
        error = {"error": name, "message": message, "command": "measures"}
        assert json.loads(out.stderr) == error

    @pytest.mark.parametrize("case", NOT_NUMBERS)
    def test_non_number_is_a_structured_error(self, case, tmp_path, capsys):
        text, name, message = NOT_NUMBERS[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["measures", str(path)]) == 3
        assert cli_error(capsys) == {"error": name, "message": message, "command": "measures"}

    def test_unnormalized_amplitudes_are_trace_not_one(self, tmp_path, capsys):
        # tr|psi><psi| = sum |a_i|^2 = 2: the error a density file with
        # trace 2 gets.
        path = tmp_path / "psi.json"
        path.write_text('{"dim":2,"amplitudes":[[1,0],[1,0]]}')
        assert main(["measures", str(path)]) == 3
        error = cli_error(capsys)
        assert error == {
            "error": "TraceNotOne",
            "message": "|sum |a_i|^2 - 1| = 1.000e+00 > 1.0e-12",
            "command": "measures",
        }

    def test_unreadable_input_is_a_structured_error(self, tmp_path, capsys):
        assert main(["roof", str(tmp_path / "missing.json")]) == 3
        error = cli_error(capsys)
        assert error["error"] == "FileNotFoundError" and error["command"] == "roof"
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["measures", str(bad)]) == 3
        assert cli_error(capsys)["error"] == "JSONDecodeError"

    def test_output_is_strict_json(self, capsys):
        # JSON has no NaN or Infinity; refuse to print them, and print
        # nothing of the document that held them.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _emit({"dim": 2, "l1": bad})
        assert capsys.readouterr().out == ""

    def test_roof_defaults_come_from_roof_config(self):
        args = build_parser().parse_args(["roof", "x.json"])
        for field in dataclasses.fields(RoofConfig):
            assert getattr(args, field.name) == getattr(RoofConfig(), field.name), field.name

    def test_parser_is_built_once_and_keeps_no_values(self, density_file, capsys, monkeypatch):
        # One parser serves every call in a process: a seed given to one
        # call must not carry over to the next, and a usage error after a
        # successful call still exits 2.
        assert build_parser() is build_parser()
        configs = []
        optimize = cli.optimize_roof
        monkeypatch.setattr(cli, "optimize_roof", lambda rho, c: configs.append(c) or optimize(rho, c))
        assert main(["roof", density_file, "--seed", "5", "--restarts", "2"]) == 0
        assert main(["roof", density_file]) == 0
        assert configs == [RoofConfig(restarts=2, seed=5), RoofConfig()]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["roof", density_file, "--restarts", "0"])
        assert exc.value.code == 2
        assert "--restarts" in capsys.readouterr().err
        assert main(["measures", density_file]) == 0

    def test_roof(self, tmp_path, capsys):
        # The printed ensemble is a decomposition of rho whose average
        # entropy is the printed value.
        for d in (2, 3):
            rho = random_density(d, d, seed=1)
            path = tmp_path / f"rho{d}.json"
            save_state(rho, path)
            assert main(["roof", str(path), "--restarts", "4"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert 0.0 <= out["value"] <= math.log2(d)
            ensemble = out["decomposition"]
            p = np.array([el["p"] for el in ensemble])
            psi = np.array([[a + 1j * b for a, b in el["state"]["amplitudes"]] for el in ensemble])
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            mixed = (p[:, None] * psi).T @ psi.conj()
            assert np.max(np.abs(mixed - rho.mat)) < 1e-8
            q = np.abs(psi) ** 2
            entropies = [-sum(x * math.log2(x) for x in row if x > 0) for row in q]
            assert p @ entropies == pytest.approx(out["value"], abs=1e-12)

    def test_roof_takes_a_seed_past_2_to_the_64(self, density_file, capsys):
        # Any seed >= 0 reaches the roof, and restart k starts from child k
        # of SeedSequence(seed): the output is the one those starts give.
        seed, restarts = 2**70, 3
        assert main(["roof", density_file, "--seed", str(seed), "--restarts", str(restarts)]) == 0
        out = capsys.readouterr().out
        rho = load_state(density_file)
        b = roof._support_rows(rho.mat)
        r = len(b)
        g = np.empty((restarts, r * r, r), dtype=complex)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
            rng = np.random.default_rng(child)
            g[i] = rng.standard_normal((r * r, r)) + 1j * rng.standard_normal((r * r, r))
        psi0 = np.linalg.qr(g)[0] @ b
        _, rows, converged = _kernels.roof_descent(psi0, roof.MAX_ITERATIONS, roof.TOLERANCE_BITS)
        decomp = roof._ensemble(rho, rows)
        _emit(
            {
                "value": roof.roof_objective(decomp),
                "converged": converged,
                "restarts_used": restarts,
                "decomposition": [
                    {"p": float(p), "state": pure_to_dict(PureState(row))}
                    for p, row in zip(decomp.weights, decomp.states)
                ],
            }
        )
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", ROOF_ARGS_OUT_OF_RANGE)
    def test_roof_argument_out_of_range(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roof", "x.json", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,value",
        ARGS_OUT_OF_RANGE,
        ids=[f"{argv[0]}{flag}={value}" for argv, flag, value in ARGS_OUT_OF_RANGE],
    )
    def test_argument_out_of_range(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_removed_tuning_flags_are_usage_errors(self, capsys):
        # The roof's budget and the pipeline's rate margin are constants
        # (roof.MAX_ITERATIONS, roof.TOLERANCE_BITS, rng.RATE_MARGIN).
        for argv in (
            ["roof", "x.json", "--tolerance", "1e-8"],
            ["roof", "x.json", "--max-iterations", "10"],
            ["pipeline", "x.json", "--margin", "0.02"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[2]} {argv[3]}" in capsys.readouterr().err

    def test_non_integer_count_is_named_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "x"])
        assert exc.value.code == 2
        assert "--samples: invalid int value: 'x'" in capsys.readouterr().err

    def test_non_numeric_float_is_named_a_float(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distill", "--alpha-sq", "x"])
        assert exc.value.code == 2
        assert "--alpha-sq: invalid float value: 'x'" in capsys.readouterr().err

    def test_argument_range_boundaries_are_accepted(self):
        parse = build_parser().parse_args
        assert parse(["verify", "--samples", "1"]).samples == 1
        assert parse(["distill", "--alpha-sq", "0.5", "--n", "1", "--m", "1"]).n == 1
        args = parse(["pipeline", "x.json", "--groups", "1", "--group-n", "1"])
        assert (args.groups, args.group_n) == (1, 1)
        assert parse(["roof", "x.json", "--seed", "0"]).seed == 0
        assert parse(["distill", "--alpha-sq", "0.5", "--n", "1", "--seed", "0"]).seed == 0
        assert parse(["sample", "x.json", "--n", "1", "--seed", "0"]).seed == 0
        assert parse(["pipeline", "x.json", "--seed", "0"]).seed == 0

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_file_is_a_structured_error(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED[case])
        assert main(["measures", str(path)]) == 3
        assert cli_error(capsys)["error"] == "ValueError"

    def test_verify_passes(self, capsys):
        assert main(["verify", "--samples", "25"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in reports)

    def test_distill_simulate(self, capsys):
        assert main(["distill", "--alpha-sq", "0.8", "--n", "20", "--m", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "simulate"
        assert out["r"] == math.floor(out["total_log2_dim"] + 1e-12)

    @pytest.mark.parametrize("alpha_sq", ["1.5", "-0.1", "nan"])
    def test_distill_alpha_sq_out_of_range(self, alpha_sq, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distill", "--alpha-sq", alpha_sq, "--n", "5"])
        assert exc.value.code == 2
        assert "--alpha-sq" in capsys.readouterr().err

    def test_distill_exact(self, capsys):
        assert main(["distill", "--alpha-sq", "0.5", "--n", "4", "--exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["subspace_dims"] == [1, 4, 6, 4, 1]

    def test_sample_to_file(self, plus_file, tmp_path, capsys):
        # README's read-back recipe returns the sampled symbols, on a qubit
        # and on the one-symbol stream that ndmin=1 keeps an array.
        cases = [
            (Path(plus_file).read_text(), 100),
            ('{"dim": 1, "amplitudes": [[1, 0]]}', 1),
        ]
        for text, n in cases:
            state_path = tmp_path / "psi.json"
            state_path.write_text(text)
            out_path = tmp_path / "stream.txt"
            assert main(["sample", str(state_path), "--n", str(n), "--out", str(out_path)]) == 0
            psi = load_state(state_path)
            symbols = np.loadtxt(out_path, dtype=np.int64, comments="#", ndmin=1)
            assert np.array_equal(symbols, sample_measurement(psi, n, 0).symbols)
            assert out_path.read_text().splitlines()[0] == f"# dim={psi.dim} seed=0"
            # Without --out, the same text goes to stdout.
            capsys.readouterr()
            assert main(["sample", str(state_path), "--n", str(n)]) == 0
            assert capsys.readouterr().out == out_path.read_text()

    def test_sample_out_to_missing_directory_is_an_error(self, plus_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "dir" / "s.txt"
        assert main(["sample", plus_file, "--n", "5", "--out", str(out_path)]) == 3
        error = cli_error(capsys)
        assert error["error"] == "FileNotFoundError" and error["command"] == "sample"
        assert not out_path.parent.exists()

    def test_sample_rejects_density(self, density_file, capsys):
        assert main(["sample", density_file, "--n", "10"]) == 3
        assert cli_error(capsys) == {
            "error": "ValueError",
            "message": "sample needs a pure state file (amplitudes)",
            "command": "sample",
        }

    def test_pipeline_rejects_density(self, density_file, capsys):
        assert main(["pipeline", density_file]) == 3
        assert cli_error(capsys)["message"] == "pipeline needs a pure state file (amplitudes)"

    def test_pipeline(self, plus_file, capsys):
        assert main(["pipeline", plus_file, "--groups", "10", "--group-n", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["path_a_bits"] > 0
        assert out["path_b_bits"] > 0

    def test_pipeline_on_one_copy(self, plus_file, capsys):
        # One copy at rate 0.98 hashes down to floor(0.98) = 0 bits.
        assert main(["pipeline", plus_file, "--groups", "1", "--group-n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["path_a_bits"], out["path_a_monobit_z"]) == (0, 0.0)
