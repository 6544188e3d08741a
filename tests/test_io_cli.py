"""State-file round trips and the batch command line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohrand import (
    DensityMatrix,
    OutcomeStream,
    RoofConfig,
    maximally_coherent_state,
    pure_state,
    random_density,
)
from cohrand import cli
from cohrand.cli import _emit, build_parser, main
from cohrand.errors import NotFinite, NotPSD
from cohrand.stateio import format_stream, load_state, load_stream, save_state, save_stream

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
        "ValueError",
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

# Roof arguments out of range: argparse rejects each with exit code 2.
ROOF_ARGS_OUT_OF_RANGE = (
    ("--restarts", "0"),
    ("--restarts", "-2"),
    ("--max-iterations", "0"),
    ("--tolerance", "0"),
    ("--tolerance", "-1e-8"),
    ("--tolerance", "nan"),
    ("--tolerance", "inf"),
    ("--seed", "-1"),
)

# Counts, seeds and the pipeline margin out of range, each after the
# rest of its command line: argparse rejects each with exit code 2.
ARGS_OUT_OF_RANGE = (
    (["verify"], "--samples", "0"),
    (["distill", "--alpha-sq", "0.5", "--exact"], "--n", "-5"),
    (["distill", "--alpha-sq", "0.5", "--n", "5"], "--m", "0"),
    (["sample", "x.json"], "--n", "0"),
    (["pipeline", "x.json"], "--groups", "0"),
    (["pipeline", "x.json"], "--group-n", "-1"),
    (["pipeline", "x.json"], "--margin", "-0.1"),
    (["pipeline", "x.json"], "--margin", "nan"),
    (["pipeline", "x.json"], "--margin", "inf"),
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


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        stream = OutcomeStream(np.array([0, 1, 1, 0], dtype=np.int64), 2, 7)
        path = tmp_path / "s.txt"
        save_stream(stream, path)
        loaded = load_stream(path)
        assert np.array_equal(loaded.symbols, stream.symbols)
        assert loaded.source_dim == 2 and loaded.seed == 7

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError):
            load_stream(path)

    @pytest.mark.parametrize("header", ["# dim=2", "# seed=3", "#"])
    def test_header_fields_required(self, header, tmp_path):
        # A header without dim or seed once escaped as a KeyError.
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n0\n1\n")
        with pytest.raises(ValueError):
            load_stream(path)

    @pytest.mark.parametrize("header", ["# dim=0 seed=1", "# dim=-2 seed=1"])
    @pytest.mark.parametrize("body", ["", "0\n"])
    def test_dim_below_one_rejected(self, header, body, tmp_path):
        # With no symbols to range-check, dim=0 once loaded as a stream.
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match="at least 1"):
            load_stream(path)

    def test_dim_beyond_int64_rejected(self, tmp_path):
        # Its symbol 2**63 passed the range check and np.array raised
        # OverflowError.
        path = tmp_path / "bad.txt"
        path.write_text(f"# dim={2**64} seed=1\n{2**63}\n")
        with pytest.raises(ValueError, match=r"at most 2\*\*63, got 18446744073709551616$"):
            load_stream(path)

    def test_header_field_without_equals_is_named(self, tmp_path):
        # It once failed with dict()'s "dictionary update sequence" message.
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 seed=1 extra\n0\n1\n")
        with pytest.raises(ValueError, match="field 'extra' is not key=value"):
            load_stream(path)

    def test_out_of_range_symbols(self, tmp_path):
        path = tmp_path / "oob.txt"
        path.write_text("# dim=2 seed=0\n0\n5\n")
        with pytest.raises(ValueError, match=r"outside 0\.\.1: 5 on line 3$"):
            load_stream(path)

    @pytest.mark.parametrize(
        "header,field,value",
        [("# dim=x seed=1", "dim", "x"), ("# dim=2 seed=1.5", "seed", "1.5"), ("# dim= seed=1", "dim", "")],
    )
    def test_non_integer_header_field_is_named(self, header, field, value, tmp_path):
        # It once failed with int()'s "invalid literal for int() with base 10".
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n0\n")
        with pytest.raises(ValueError, match=f"^stream header {field} must be an integer, got '{value}'$"):
            load_stream(path)

    def test_non_integer_symbol_names_its_line(self, tmp_path):
        # Lines count from 1 at the header, blank lines included.
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 seed=1\n0\n\nfoo\n1\n")
        with pytest.raises(ValueError, match="^stream line 4 must be an integer, got 'foo'$"):
            load_stream(path)


# Derandomized draws and a fixed example budget: every run draws the same
# examples.
STREAM_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)
# Text that survives a round trip through a UTF-8 file.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
# One header field's value or one symbol line: no whitespace, no line break.
TOKEN = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12).filter(
    lambda token: token.split() == [token] and token.splitlines() == [token]
)


def not_an_integer(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


@st.composite
def streams(draw):
    dim = draw(st.integers(1, 2**63))
    symbols = draw(st.lists(st.integers(0, dim - 1), max_size=30))
    return OutcomeStream(np.array(symbols, dtype=np.int64), dim, draw(st.integers(-(2**80), 2**80)))


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    return tmp_path_factory.mktemp("streams") / "stream.txt"


def load_text(path, text):
    path.write_text(text)
    return load_stream(path)


class TestStreamProperties:
    @STREAM_SETTINGS
    @given(streams())
    def test_format_then_load_round_trips(self, stream_file, stream):
        loaded = load_text(stream_file, format_stream(stream))
        assert loaded.symbols.dtype == np.int64
        assert np.array_equal(loaded.symbols, stream.symbols)
        assert (loaded.source_dim, loaded.seed) == (stream.source_dim, stream.seed)

    @STREAM_SETTINGS
    @given(
        st.one_of(TEXT, st.from_regex(r"# dim=-?[0-9]{1,2} seed=-?[0-9]{1,3}", fullmatch=True)),
        st.lists(st.one_of(TEXT, st.integers(-3, 99).map(str)), max_size=5),
    )
    def test_any_text_loads_in_range_or_raises_value_error(self, stream_file, header, body):
        # Whatever the file holds, load_stream returns a stream whose
        # symbols lie in 0..dim-1, or raises ValueError and nothing else.
        try:
            stream = load_text(stream_file, "\n".join([header, *body]))
        except ValueError:
            return
        assert stream.source_dim >= 1
        assert all(0 <= s < stream.source_dim for s in stream.symbols)

    @STREAM_SETTINGS
    @given(st.sampled_from(["dim", "seed"]), TOKEN)
    def test_non_integer_header_field_raises_value_error(self, stream_file, field, token):
        assume(not_an_integer(token))
        values = {"dim": "2", "seed": "1", field: token}
        text = f"# dim={values['dim']} seed={values['seed']}\n0\n"
        with pytest.raises(ValueError, match=f"^stream header {field} must be an integer"):
            load_text(stream_file, text)

    @STREAM_SETTINGS
    @given(st.lists(st.integers(0, 2), max_size=5), TOKEN)
    def test_non_integer_symbol_raises_value_error(self, stream_file, before, token):
        assume(not_an_integer(token))
        text = format_stream(OutcomeStream(np.array(before, dtype=np.int64), 3, 0)) + token + "\n"
        with pytest.raises(ValueError, match=f"^stream line {len(before) + 2} must be an integer"):
            load_text(stream_file, text)

    @STREAM_SETTINGS
    @given(st.integers(1, 2**63), st.integers(-(2**80), 2**80))
    def test_out_of_range_symbol_raises_value_error(self, stream_file, dim, symbol):
        assume(not 0 <= symbol < dim)
        with pytest.raises(ValueError, match=f"outside 0\\.\\.{dim - 1}: {symbol} on line 3$"):
            load_text(stream_file, f"# dim={dim} seed=0\n0\n{symbol}\n")


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

    def test_non_integer_count_is_named_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "x"])
        assert exc.value.code == 2
        assert "--samples: invalid int value: 'x'" in capsys.readouterr().err

    def test_non_numeric_float_is_named_a_float(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roof", "x.json", "--tolerance", "x"])
        assert exc.value.code == 2
        assert "--tolerance: invalid float value: 'x'" in capsys.readouterr().err

    def test_argument_range_boundaries_are_accepted(self):
        parse = build_parser().parse_args
        assert parse(["verify", "--samples", "1"]).samples == 1
        assert parse(["distill", "--alpha-sq", "0.5", "--n", "1", "--m", "1"]).n == 1
        args = parse(["pipeline", "x.json", "--groups", "1", "--group-n", "1", "--margin", "0"])
        assert (args.groups, args.group_n, args.margin) == (1, 1, 0.0)
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
        out_path = tmp_path / "stream.txt"
        assert main(["sample", plus_file, "--n", "100", "--out", str(out_path)]) == 0
        stream = load_stream(out_path)
        assert len(stream.symbols) == 100
        # Without --out, the same text goes to stdout.
        capsys.readouterr()
        assert main(["sample", plus_file, "--n", "100"]) == 0
        assert capsys.readouterr().out == out_path.read_text()

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
