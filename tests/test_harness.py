import copy
import dataclasses
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdyn import cli, harness
from coopdyn.envs import DungeonConfig, IntersectionConfig
from coopdyn.errors import ConfigError, NumericalIntegrityError
from coopdyn.ipd import Alternator, PayoffMatrix
from coopdyn.mfg import MfgParams, RewardTable
from coopdyn.roles import SwitchPolicy
from coopdyn.harness import (
    MAX_GRID_POINTS,
    load_config,
    regenerate_report,
    run,
    run_from_manifest,
    write_csv,
)


def ipd_match_config(**overrides):
    config = {
        "experiment": "ipd_match",
        "seed": 3,
        "payoff": {"temptation": 5, "reward": 3, "punishment": 1, "sucker": 0},
        "horizon": 6,
        "discount": 0.9,
        "players": [{"kind": "alternator"}, {"kind": "tit_for_tat"}],
    }
    config.update(overrides)
    return config


def delta_scan_config():
    return {
        "experiment": "delta_scan",
        "payoff": {"temptation": 5, "reward": 3, "punishment": 1, "sucker": 0},
        "grid": {"start": 0.0, "stop": 0.9, "step": 0.1},
    }


def mfg_solve_config():
    return {
        "experiment": "mfg_solve",
        "seed": 0,
        "params": {
            "n_agents": 6,
            "threshold": 2,
            "discount": 0.9,
            "temperature": 0.5,
            "horizon": 4,
        },
        "solver": {"tol": 1e-8, "max_iter": 300, "damping": 0.5},
    }


def roles_config(**overrides):
    config = {
        "experiment": "roles_run",
        "seed": 1,
        "n_agents": 6,
        "threshold": 2,
        "rounds": 9,
        "cohort": 2,
        "assignment": "rotation",
    }
    config.update(overrides)
    return config


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def columns_of(rows):
    """The table holding `rows`, one numpy column per position, each of
    the dtype numpy infers from its values."""
    return harness._ArrayTable(*(np.array(column) for column in zip(*rows)))


def test_write_csv_uses_twelve_significant_digits(tmp_path):
    header = ["third", "tiny", "count", "flag", "name", "whole", "zero"]
    rows = [(1 / 3, 1.5e-11, 7, True, "abc", 2.0, -0.0), (0.5, 1e20, -3, False, "d", 1.0, 0.0)]
    write_csv(tmp_path / "t.csv", header, columns_of(rows))
    assert read_lines(tmp_path / "t.csv") == [
        "third,tiny,count,flag,name,whole,zero",
        "0.333333333333,1.5e-11,7,1,abc,2,-0",
        "0.5,1e+20,-3,0,d,1,0",
    ]
    write_csv(tmp_path / "empty.csv", ["a", "b"], harness._ArrayTable(np.zeros(0), np.zeros(0)))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_write_csv_pins_special_floats_and_keeps_template_characters_in_cells(tmp_path):
    header = ["nan", "inf", "ninf", "zero", "big", "percent", "braces"]
    rows = [(math.nan, math.inf, -math.inf, -0.0, 10**20, "5% %d %s %%", "{} {0} {:d}")]
    table = columns_of(rows)
    assert table.columns[4].dtype == object  # 10**20 does not fit an int64
    write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"nan,inf,ninf,zero,big,percent,braces\n"
        b"nan,inf,-inf,-0,100000000000000000000,5% %d %s %%,{} {0} {:d}\n"
    )


ORACLE_CELL = {bool: "%d", int: "%d", float: "%.12g", str: "%s"}


def row_oracle_bytes(header, rows):
    """The per-row writer: one `%` template, picked from the first row's
    types, formats every row."""
    template = ",".join(ORACLE_CELL[type(value)] for value in rows[0]) if rows else ""
    return ("\n".join([",".join(header), *map(template.__mod__, rows)]) + "\n").encode()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1e300, -1e-300, 1e-300, 1 / 3, 2.0, 10.0**20]
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# a column draws from a small pool of values, so it repeats them heavily;
# every float pool holds both zeros, which only their bits tell apart
POOLS = {
    np.float64: st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                         max_size=5).map(lambda pool: [0.0, -0.0, *pool]),
    np.int64: st.lists(st.one_of(st.sampled_from([0, -1, 2**63 - 1, -(2**63)]), INT64),
                       min_size=1, max_size=6),
    # a narrow range, formatted once per table from the strings of its range
    np.int32: st.lists(st.integers(min_value=-4, max_value=3), min_size=1, max_size=4),
    # ints past int64 only fit an object column
    object: st.lists(st.one_of(st.integers(min_value=2**63, max_value=2**65),
                               st.integers(min_value=-3, max_value=3)),
                     min_size=1, max_size=4),
    np.bool_: st.just([False, True]),
    # template characters of both `%` and `str.format`; no NUL, which numpy
    # strips from the end of a str array's items
    np.str_: st.lists(
        st.one_of(st.sampled_from(["%", "%%", "{}", "%d %s", "{0:d}", ""]),
                  st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
                          max_size=4)),
        min_size=1, max_size=4),
}


@st.composite
def array_columns(draw):
    length = draw(st.integers(min_value=0, max_value=30))
    columns = []
    for dtype in draw(st.lists(st.sampled_from(list(POOLS)), min_size=1, max_size=5)):
        pool = draw(POOLS[dtype])
        column = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
        columns.append(np.array(column, dtype=dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(array_columns(), st.sampled_from([1, 2, 3, 5, harness._BLOCK_ROWS]))
def test_array_tables_write_the_bytes_of_the_row_writer(columns, block_rows):
    # blocks of a few rows split a 30-row table many times over
    header = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*(column.tolist() for column in columns)))
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_BLOCK_ROWS", block_rows)
        path = Path(directory) / "t.csv"
        write_csv(path, header, harness._ArrayTable(*columns))
        assert path.read_bytes() == row_oracle_bytes(header, rows)


def edge_columns(length):
    """Columns of `length` rows whose values repeat across the edges of
    blocks of four rows: both zeros in different blocks, narrow and wide
    int ranges with negative values and int64 extremes, bools, template
    characters and object ints past int64."""
    i = np.arange(length)
    low, high = -(2**63), 2**63 - 1
    return [
        np.where(i < 4, 0.0, np.where(i % 3 == 0, -0.0, 1 / 3)),
        i % 3 - 1,
        np.array([low, high, 0, -5, 7])[i % 5],
        high - i % 2,
        low + i % 4,
        i % 3 == 0,
        np.array(["5%", "{}", "%d %s", "{0:d}", "%%"])[i % 5],
        np.array([2**63, 2**64 + 1, 7, -1, 2**63], dtype=object)[i % 5],
        np.random.default_rng(length).random(length),
    ]


def test_blocks_of_a_few_rows_write_the_bytes_of_the_row_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
    columns = edge_columns(30)
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "t.csv", header, harness._ArrayTable(*columns))
    rows = list(zip(*(column.tolist() for column in columns)))
    assert (tmp_path / "t.csv").read_bytes() == row_oracle_bytes(header, rows)


def test_a_table_of_two_blocks_and_a_remainder_writes_the_bytes_of_the_row_writer(tmp_path):
    length = 2 * harness._BLOCK_ROWS + 17
    # a wide column, whose range is more than a block, next to the narrow ones
    columns = [*edge_columns(length), np.arange(length) * 3 - length]
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "t.csv", header, harness._ArrayTable(*columns))
    rows = list(zip(*(column.tolist() for column in columns)))
    assert (tmp_path / "t.csv").read_bytes() == row_oracle_bytes(header, rows)


def test_writing_a_table_holds_one_block_whatever_its_length(tmp_path):
    # the writer's traced peak, for a solver-shaped (t, j, distinct float)
    # table, stays under a fixed bound at ten times the rows
    peaks = {}
    for length in (10**5, 10**6):
        t, j = np.divmod(np.arange(length), 1001)
        table = harness._ArrayTable(t, j, np.random.default_rng(0).random(length))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["t", "j", "x"], table)
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "t.csv").read_bytes().count(b"\n") == length + 1
    assert max(peaks.values()) < 3 * 2**20, peaks
    assert abs(peaks[10**6] - peaks[10**5]) < 2**18, peaks


def test_a_column_mixing_python_types_is_refused_by_name(tmp_path):
    # one template per column: %d would write 2.5 as 2
    table = harness._ArrayTable(np.arange(3), np.array([1, 2.5, 10**20], dtype=object))
    with pytest.raises(ValueError, match="table column 'b' mixes Python types: float, int"):
        write_csv(tmp_path / "t.csv", ["a", "b"], table)
    assert list(tmp_path.iterdir()) == []


def test_array_tables_write_strided_columns_and_both_zeros(tmp_path):
    # the solver's policy and value columns are strided views of (.., 2) arrays
    pairs = np.array([[0.0, -0.0], [-0.0, 0.5], [0.0, -0.0]])
    write_csv(tmp_path / "t.csv", ["a", "b"], harness._ArrayTable(*pairs.T))
    assert read_lines(tmp_path / "t.csv") == ["a,b", "0,-0", "-0,0.5", "0,-0"]


def test_an_array_table_has_a_length_and_rows_of_plain_python_values():
    table = harness._ArrayTable(
        np.arange(3), np.array([0.5, -0.0, 2.0]), np.array([True, False, True])
    )
    assert len(table) == 3
    columns = [column.tolist() for column in table.columns]
    assert columns == [[0, 1, 2], [0.5, -0.0, 2.0], [True, False, True]]
    assert [{type(value) for value in column} for column in columns] == [{int}, {float}, {bool}]


def test_array_table_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        harness._ArrayTable(np.arange(3), np.arange(4.0))


def test_an_empty_array_table_writes_the_header_only(tmp_path):
    table = harness._ArrayTable(np.arange(0), np.zeros(0))
    assert len(table) == 0
    write_csv(tmp_path / "t.csv", ["a", "b"], table)
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_tables_hold_one_python_type_per_column(tmp_path, monkeypatch, path):
    # write_csv refuses an object column that mixes Python types, the only
    # kind of column that could; no shipped config writes one
    written = {}
    original = harness.write_csv

    def recording(target, header, rows):
        written[target.name] = rows
        original(target, header, rows)

    monkeypatch.setattr(harness, "write_csv", recording)
    run(load_config(path), out_dir=tmp_path)
    assert written
    for name, rows in written.items():
        for column in rows.columns:
            assert len({type(value) for value in column.tolist()}) <= 1, name


def leftovers(directory):
    return sorted(path.name for path in directory.glob("*.tmp"))


def test_failing_report_writes_nothing_and_keeps_the_previous_run(tmp_path, monkeypatch):
    previous = tmp_path / "previous"
    run(delta_scan_config(), out_dir=previous)
    before = {path.name: path.read_bytes() for path in previous.iterdir()}

    def explode(manifest):
        raise RuntimeError("report failed")

    monkeypatch.setattr(harness, "render_report", explode)
    config = dict(delta_scan_config(), grid={"values": [0.5]})
    for out in (tmp_path / "fresh", previous):
        with pytest.raises(RuntimeError, match="report failed"):
            run(config, out_dir=out)
    assert not (tmp_path / "fresh").exists()
    assert leftovers(previous) == []
    assert {path.name: path.read_bytes() for path in previous.iterdir()} == before


class FailingFile:
    """A file whose `fail_at`-th write (counting from 1) raises ENOSPC."""

    def __init__(self, file, writes, fail_at):
        self.file, self.writes, self.fail_at = file, writes, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes.append(len(data))
        if len(self.writes) == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.file.write(data)


def fail_on_write(monkeypatch, fail_at):
    """Write tables in blocks of four rows and fail the harness's
    `fail_at`-th file write; returns the list of write sizes."""
    writes = []
    monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(harness, "open",
                        lambda *args: FailingFile(open(*args), writes, fail_at), raising=False)
    return writes


def test_a_write_failing_mid_stream_keeps_the_previous_file_and_no_temporary(
    tmp_path, monkeypatch
):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], harness._ArrayTable(np.arange(3)))
    before = path.read_bytes()
    writes = fail_on_write(monkeypatch, 3)  # the header, one block, then the failure
    with pytest.raises(OSError, match="No space left"):
        write_csv(path, ["a", "b"], harness._ArrayTable(np.arange(30), np.arange(30.0)))
    assert len(writes) == 3
    assert path.read_bytes() == before
    assert leftovers(tmp_path) == []


def test_a_run_failing_mid_stream_keeps_the_previous_run(tmp_path, monkeypatch):
    run(delta_scan_config(), out_dir=tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    fail_on_write(monkeypatch, 4)
    config = dict(delta_scan_config(), grid={"start": 0.0, "stop": 0.95, "step": 0.05})
    with pytest.raises(OSError, match="No space left"):
        run(config, out_dir=tmp_path)
    assert leftovers(tmp_path) == []
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_failed_replace_leaves_earlier_artifacts_whole_and_no_temporary(
    tmp_path, monkeypatch
):
    replaced = []
    real_replace = os.replace

    def second_fails(src, dst):
        if replaced:
            raise OSError(28, "No space left on device", str(dst))
        real_replace(src, dst)
        replaced.append(Path(dst).name)

    monkeypatch.setattr(os, "replace", second_fails)
    with pytest.raises(OSError, match="No space left"):
        run(mfg_solve_config(), out_dir=tmp_path)
    monkeypatch.undo()
    assert leftovers(tmp_path) == []
    assert [path.name for path in tmp_path.iterdir()] == replaced
    reference = tmp_path / "reference"
    run(mfg_solve_config(), out_dir=reference)
    (name,) = replaced
    assert (tmp_path / name).read_bytes() == (reference / name).read_bytes()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_keys_are_listed(tmp_path):
    config = ipd_match_config(bogus=1, extra="x")
    with pytest.raises(ConfigError) as err:
        run(config, out_dir=tmp_path)
    message = str(err.value)
    assert "bogus" in message and "extra" in message


def test_nested_unknown_keys_are_located(tmp_path):
    config = mfg_solve_config()
    config["params"]["mystery"] = 9
    with pytest.raises(ConfigError, match=r"config\.params.*mystery"):
        run(config, out_dir=tmp_path)


def test_missing_required_keys_are_reported(tmp_path):
    config = ipd_match_config()
    del config["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        run(config, out_dir=tmp_path)


def test_unknown_experiment_kind(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        run({"experiment": "nope"}, out_dir=tmp_path)


def test_bad_payoff_ordering_is_reported(tmp_path):
    config = ipd_match_config()
    config["payoff"]["reward"] = 9
    with pytest.raises(ConfigError, match="ordering"):
        run(config, out_dir=tmp_path)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


# ---------------------------------------------------------------------------
# experiment outputs
# ---------------------------------------------------------------------------


def test_ipd_match_outputs(tmp_path):
    artifacts = run(ipd_match_config(), out_dir=tmp_path)
    lines = read_lines(tmp_path / "trajectory.csv")
    assert lines[0] == "round,action_x,action_y,payoff_x,payoff_y"
    assert len(lines) == 7
    # alternator in seat 0 defects first against tit-for-tat's cooperate
    assert lines[1] == "0,D,C,5,0"
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "report.md").exists()
    assert artifacts.summary["regime"] == "classic"


def test_ipd_tournament_outputs(tmp_path):
    config = {
        "experiment": "ipd_tournament",
        "payoff": {"temptation": 5, "reward": 2, "punishment": 1, "sucker": 0},
        "horizon": 50,
        "discount": 0.95,
        "players": [
            {"kind": "alternator"},
            {"kind": "grim_trigger"},
            {"kind": "win_stay_lose_shift"},
        ],
    }
    run(config, out_dir=tmp_path)
    lines = read_lines(tmp_path / "scores.csv")
    assert lines[0] == "label,mean_discounted,mean_group"
    assert len(lines) == 4


def test_delta_scan_outputs(tmp_path):
    artifacts = run(delta_scan_config(), out_dir=tmp_path)
    lines = read_lines(tmp_path / "scan.csv")
    assert lines[0] == "delta,stick,deviate,sign,above_solved,above_quoted"
    assert len(lines) == 11
    # at delta=0 both streams equal the temptation payoff
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0"
    assert artifacts.summary["solved_threshold"] == pytest.approx(0.25, abs=1e-9)
    assert artifacts.summary["quoted_threshold"] == pytest.approx(0.5)


def test_delta_scan_sign_flips_exactly_at_the_solved_threshold(tmp_path):
    config = delta_scan_config()
    config["grid"] = {"start": 0.01, "stop": 0.99, "step": 0.01}
    run(config, out_dir=tmp_path)
    for line in read_lines(tmp_path / "scan.csv")[1:]:
        cells = line.split(",")
        delta, sign = float(cells[0]), int(cells[3])
        # (5,3,1,0): sticking wins exactly above 0.25; the grid point that
        # lands on the root itself reports a zero difference
        if abs(delta - 0.25) < 1e-9:
            continue
        assert sign == (1 if delta > 0.25 else -1)


@pytest.mark.parametrize("grid", [{"values": []}, {"start": 0.5, "stop": 0.1, "step": 0.1}],
                         ids=["no_values", "start_above_stop"])
def test_an_empty_delta_scan_grid_writes_the_header_only(tmp_path, grid):
    artifacts = run(dict(delta_scan_config(), grid=grid), out_dir=tmp_path)
    assert (tmp_path / "scan.csv").read_bytes() == (
        b"delta,stick,deviate,sign,above_solved,above_quoted\n"
    )
    assert artifacts.summary["points"] == artifacts.summary["points_favoring_stick"] == 0


def test_delta_scan_sign_is_zero_where_stick_minus_deviate_is_nan(tmp_path):
    # both streams overflow to -inf at delta 0.99, so their difference is
    # NaN, which is neither a gain nor a loss
    payoff = {"temptation": 1e308, "reward": 1e307, "punishment": -1e308, "sucker": -1.7e308}
    config = dict(delta_scan_config(), payoff=payoff, grid={"values": [0.99]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        artifacts = run(config, out_dir=tmp_path)
    assert read_lines(tmp_path / "scan.csv")[1] == "0.99,-inf,-inf,0,1,1"
    assert artifacts.summary["points_favoring_stick"] == 0


def test_mfg_solve_outputs(tmp_path):
    artifacts = run(mfg_solve_config(), out_dir=tmp_path)
    assert artifacts.summary["converged"] is True
    for name, header in {
        "policy.csv": "t,j,pi_wait,pi_move",
        "flow.csv": "t,j,prob",
        "values.csv": "t,j,q_wait,q_move",
        "diag.csv": "iter,policy_residual,dist_residual",
    }.items():
        lines = read_lines(tmp_path / name)
        assert lines[0] == header
    assert len(read_lines(tmp_path / "policy.csv")) == 1 + 4 * 7
    assert len(read_lines(tmp_path / "flow.csv")) == 1 + 5 * 7


def test_mfg_simulate_outputs(tmp_path):
    config = {
        "experiment": "mfg_simulate",
        "seed": 5,
        "params": {"n_agents": 30, "threshold": 12, "temperature": 0.3, "horizon": 5},
        "episodes": 20,
        "policy": "equilibrium",
        "solver": {"tol": 1e-6, "max_iter": 200, "damping": 0.5},
    }
    artifacts = run(config, out_dir=tmp_path)
    lines = read_lines(tmp_path / "sim.csv")
    assert lines[0] == "t,empirical_mean_count,mean_field_mean_count,scaled_gap"
    assert len(lines) == 7
    assert artifacts.summary["deviation"] < 0.2


def test_roles_run_outputs(tmp_path):
    artifacts = run(roles_config(), out_dir=tmp_path)
    lines = read_lines(tmp_path / "roles.csv")
    assert lines[0] == "round,agent_id,role,streak,cumulative_sacrifices,credited_reward"
    assert len(lines) == 1 + 9 * 6
    rounds = read_lines(tmp_path / "rounds.csv")
    assert rounds[0] == "round,n_moved,passed"
    assert artifacts.summary["mover_count_gap"] == 0
    assert artifacts.summary["passed_rounds"] == 9


def test_roles_run_policy_mode(tmp_path):
    config = roles_config(
        assignment="policy",
        rounds=4,
        mfg={"temperature": 0.4, "horizon": 4},
        solver={"tol": 1e-6, "max_iter": 100, "damping": 0.5},
    )
    artifacts = run(config, out_dir=tmp_path)
    assert artifacts.summary["solve"]["converged"] is True


def test_dungeon_outputs(tmp_path):
    config = {"experiment": "dungeon", "n_agents": 3, "rounds": 6}
    artifacts = run(config, out_dir=tmp_path)
    rounds = read_lines(tmp_path / "rounds.csv")
    assert rounds[0] == "round,sacrificer"
    sacrificers = [line.split(",")[1] for line in rounds[1:]]
    assert sacrificers == ["0", "1", "2", "0", "1", "2"]
    assert artifacts.summary["sacrifice_gap"] == 0


# ---------------------------------------------------------------------------
# manifests and reproducibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config_builder",
    [ipd_match_config, delta_scan_config, mfg_solve_config, roles_config],
)
def test_manifest_reruns_are_byte_identical(tmp_path, config_builder):
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    artifacts = run(config_builder(), out_dir=first_dir)
    rerun = run_from_manifest(artifacts.manifest_path, out_dir=second_dir)
    assert artifacts.csv_files == rerun.csv_files
    for name in artifacts.csv_files:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()


def test_manifest_contains_resolved_defaults(tmp_path):
    config = delta_scan_config()
    artifacts = run(config, out_dir=tmp_path)
    manifest = json.loads(artifacts.manifest_path.read_text())
    assert manifest["config"]["seed"] == 0
    assert manifest["config"]["grid"]["values"][0] == 0.0
    assert manifest["version"]


def test_report_regeneration_is_stable(tmp_path):
    artifacts = run(mfg_solve_config(), out_dir=tmp_path)
    original = artifacts.report_path.read_bytes()
    regenerate_report(tmp_path)
    assert artifacts.report_path.read_bytes() == original


def test_rerun_with_same_out_dir_overwrites_cleanly(tmp_path):
    first = run(delta_scan_config(), out_dir=tmp_path)
    before = (tmp_path / "scan.csv").read_bytes()
    second = run(delta_scan_config(), out_dir=tmp_path)
    assert (tmp_path / "scan.csv").read_bytes() == before
    assert first.summary == second.summary


# ---------------------------------------------------------------------------
# rejected inputs exit 1 with the key path and leave nothing on disk
# ---------------------------------------------------------------------------


def run_cli(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    command = config["experiment"].replace("_", "-")
    return cli.main([command, "--config", str(path), "--out", str(out)]), out


def formula_solve_config(**params):
    config = mfg_solve_config()
    config["params"].update(reward_mode="formula", **params)
    return config


@pytest.mark.parametrize(
    "config, key",
    [
        (formula_solve_config(reward_offset=math.inf), "config.params.reward_offset"),
        (formula_solve_config(consistency_weight=math.nan), "config.params.consistency_weight"),
        (dict(mfg_solve_config(), solver={"tol": math.inf}), "config.solver.tol"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, config, key):
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        (dict(delta_scan_config(), grid={"values": ["x"]}), "config.grid.values[0]"),
        (
            formula_solve_config(initial_distribution=["a"] + [0.0] * 6),
            "config.params.initial_distribution[0]",
        ),
        (roles_config(assignment="static", static_movers=["a"]), "config.static_movers[0]"),
    ],
)
def test_wrong_typed_array_elements_are_rejected(tmp_path, capsys, config, key):
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert f"{key}: expected a" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        (
            dict(mfg_solve_config(), params={"n_agents": 6, "threshold": 2, "smoothing": 2.0}),
            "config.params: smoothing: used only when reward_mode is 'formula'",
        ),
        (
            roles_config(assignment="policy", mfg={"reward_offset": 0.5}),
            "config.mfg: reward_offset: used only when reward_mode is 'formula'",
        ),
    ],
)
def test_table_mode_rejects_formula_only_keys(tmp_path, capsys, config, message):
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_static_movers_are_rejected(tmp_path, capsys):
    code, out = run_cli(tmp_path, roles_config(assignment="static", static_movers=[0, 0, 1]))
    assert code == 1
    assert "config: static_movers ids must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        (ipd_match_config(players=[{"kind": "all_c"}] * 3),
         "config.players: expected exactly 2 entries"),
        (ipd_match_config(experiment="ipd_tournament", players=[{"kind": "all_c"}]),
         "config.players: expected at least 2 entries"),
        (dict(delta_scan_config(), grid={"start": 0.1, "stop": 0.5, "step": 0.0}),
         "config.grid.step: must be positive"),
        (dict(delta_scan_config(), grid={"values": [0.5, 1.0]}),
         "config.grid: discount must lie in [0, 1), got 1.0"),
        (dict(mfg_solve_config(), experiment="mfg_simulate", episodes=3, policy="greedy"),
         "config.policy: must be 'equilibrium' or 'uniform', got 'greedy'"),
        (roles_config(assignment="policy", mfg={"n_agents": 7}),
         "config: params.n_agents must match the environment"),
        (roles_config(assignment="policy", mfg={"threshold": 3}),
         "config: params.threshold must match the environment"),
        (roles_config(threshold=6), "config: threshold must be an integer >= 1 "
         "and < n_agents = 6, got 6"),
        (roles_config(assignment="static", static_movers=[0, 6]),
         "config: static_movers id must be an integer >= 0 and < n_agents = 6, got 6"),
    ],
    ids=["players-exact", "players-at-least", "grid-step", "grid-point", "simulate-policy",
         "mfg-n_agents", "mfg-threshold", "threshold", "static_movers"],
)
def test_each_config_refusal_is_one_line_naming_its_key(tmp_path, capsys, config, message):
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_config_that_is_not_an_object_is_refused(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        run([delta_scan_config()], out_dir=tmp_path / "out")
    assert excinfo.value.problems == ["config: expected a JSON object"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("temperature", [3e-309, 1e-309])
@pytest.mark.parametrize("mode", ["table", "formula"])
def test_a_temperature_whose_reciprocal_overflows_exits_one(tmp_path, capsys, mode, temperature):
    config = mfg_solve_config()
    config["params"].update(reward_mode=mode, temperature=temperature)
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config.params: temperature must be a positive number with a finite "
        f"reciprocal, got {temperature!r}\n"
    )
    assert not out.exists()


SWITCH_MODE = "config: switch mode must be 'stochastic_sigmoid' exactly when assignment is"


@pytest.mark.parametrize(
    "config, message",
    [
        (
            roles_config(static_movers=[4, 5]),
            "config: static_movers: used only when assignment is 'static'",
        ),
        (
            roles_config(switch={"mode": "stochastic_sigmoid", "streak_midpoint": 3,
                                 "streak_scale": 0.5}),
            SWITCH_MODE,
        ),
        (roles_config(assignment="stochastic", switch={"mode": "deterministic_window"}),
         SWITCH_MODE),
        (
            roles_config(assignment="static", switch={"streak_midpoint": 3}),
            "config.switch: streak_midpoint: used only in stochastic_sigmoid mode",
        ),
        (
            {"experiment": "dungeon", "rounds": 6, "switch": {"streak_scale": 0.5}},
            "config.switch: streak_scale: used only in stochastic_sigmoid mode",
        ),
        (
            roles_config(solver={"tol": 0.3, "max_iter": 2}),
            "config.solver: tol, max_iter: used only when assignment is 'policy'",
        ),
        (
            roles_config(assignment="stochastic", solver={"damping": 0.9}),
            "config.solver: damping: used only when assignment is 'policy'",
        ),
        (
            dict(mfg_solve_config(), experiment="mfg_simulate", episodes=3, policy="uniform",
                 solver={"tol": 0.3, "max_iter": 2, "damping": 0.9}),
            "config.solver: tol, max_iter, damping: used only when policy is 'equilibrium'",
        ),
        (
            roles_config(mfg={"discount": 0.5, "temperature": 3, "horizon": 7}),
            "config.mfg: discount, temperature, horizon: used only when assignment is 'policy'",
        ),
        (
            {"experiment": "mfg_simulate", "episodes": 3, "policy": "uniform",
             "params": {"n_agents": 6, "threshold": 2, "reward_mode": "formula", "smoothing": 2}},
            "config.params: smoothing, reward_mode: used only when policy is 'equilibrium'",
        ),
        (
            roles_config(assignment="policy", cohort=1),
            "config: cohort: used only when neither a policy nor static_movers picks the movers",
        ),
        (
            roles_config(assignment="static", static_movers=[0, 1], cohort=1),
            "config: cohort: used only when neither a policy nor static_movers picks the movers",
        ),
    ],
    ids=["static_movers", "stochastic-switch", "deterministic-switch", "window-midpoint",
         "dungeon-window-scale", "rotation-solver", "stochastic-solver", "uniform-solver",
         "rotation-mfg", "uniform-params", "policy-cohort", "static-movers-cohort"],
)
def test_a_key_the_run_never_reads_must_keep_its_default(tmp_path, capsys, config, message):
    code, out = run_cli(tmp_path, config)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unread_keys_written_at_their_defaults_are_accepted(tmp_path):
    plain = run(roles_config(), out_dir=tmp_path / "plain")
    explicit = run(
        roles_config(
            static_movers=None,
            switch={"mode": "deterministic_window", "streak_midpoint": 1.0, "streak_scale": 1},
            solver={"tol": 1e-8, "max_iter": 500, "damping": 0.5},
        ),
        out_dir=tmp_path / "explicit",
    )
    for name in ("roles.csv", "rounds.csv", "manifest.json"):
        assert (plain.out_dir / name).read_bytes() == (explicit.out_dir / name).read_bytes()


def test_a_uniform_simulation_accepts_its_solver_block_at_the_defaults(tmp_path):
    config = dict(mfg_solve_config(), experiment="mfg_simulate", episodes=3, policy="uniform")
    del config["params"]["temperature"]  # read only by the solve
    plain = run({**config, "solver": {}}, out_dir=tmp_path / "plain")
    explicit = run({**config, "solver": {"tol": 1e-8, "max_iter": 500, "damping": 0.5}},
                   out_dir=tmp_path / "explicit")
    for name in ("sim.csv", "manifest.json"):
        assert (plain.out_dir / name).read_bytes() == (explicit.out_dir / name).read_bytes()


def test_a_dungeon_config_must_state_its_length(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"experiment": "dungeon", "n_agents": 3})
    assert code == 1
    assert "config: missing required key 'rounds'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_a_config_seed_outside_the_unsigned_64_bit_range_is_rejected(tmp_path, capsys, seed):
    code, out = run_cli(tmp_path, dict(delta_scan_config(), seed=seed))
    assert code == 1
    assert "config.seed: must be >= 0 and < 2**64" in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_unsigned_64_bit_seed_is_accepted(tmp_path):
    artifacts = run(roles_config(seed=2**64 - 1), out_dir=tmp_path)
    manifest = json.loads(artifacts.manifest_path.read_text())
    assert manifest["config"]["seed"] == 2**64 - 1


def test_oversized_delta_scan_grid_is_rejected_before_it_is_built(tmp_path):
    config = dict(delta_scan_config(), grid={"start": 0, "stop": 0.99, "step": 1e-9})
    with pytest.raises(ConfigError, match=f"more than {MAX_GRID_POINTS} points"):
        run(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_default_streak_midpoint_beyond_float_range_is_a_config_error(tmp_path):
    config = roles_config(n_agents=2000, threshold=1000, cohort=1000, assignment="stochastic")
    with pytest.raises(
        ConfigError, match=r"^config: streak_midpoint: C\(1999, 1000\) is beyond the float range$"
    ):
        run(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# C(1999, 1000) is beyond the float range
HUGE_COHORT = {"n_agents": 2000, "threshold": 1000, "cohort": 1000, "rounds": 3,
               "assignment": "stochastic"}


@pytest.mark.parametrize("switch", [{}, {"mode": "stochastic_sigmoid", "streak_scale": 1}],
                         ids=["absent", "scale-only"])
def test_cli_refuses_a_default_midpoint_beyond_float_range(tmp_path, capsys, switch):
    code, out = run_cli(tmp_path, roles_config(**HUGE_COHORT, switch=switch))
    assert code == 1
    assert ("config: streak_midpoint: C(1999, 1000) is beyond the float range"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_runs_a_switch_block_that_names_its_midpoint_past_an_unfit_default(tmp_path):
    switch = {"mode": "stochastic_sigmoid", "streak_midpoint": 5, "streak_scale": 1}
    code, out = run_cli(tmp_path, roles_config(**HUGE_COHORT, switch=switch))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["switch"] == {**switch, "streak_midpoint": 5.0, "streak_scale": 1.0}
    assert manifest["summary"]["rounds"] == 3


def test_non_finite_result_is_a_numerical_error_and_writes_nothing(tmp_path):
    # finite payoffs whose discounted sums overflow to inf
    config = ipd_match_config(
        payoff={"temptation": 1e308, "reward": 1e307, "punishment": 1, "sucker": 0},
        players=[{"kind": "all_d"}, {"kind": "all_c"}],
    )
    with pytest.raises(NumericalIntegrityError, match="manifest"):
        run(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("assignment", ["rotation", "stochastic"])
def test_absent_and_empty_switch_blocks_resolve_alike(tmp_path, assignment):
    absent = run(roles_config(assignment=assignment), out_dir=tmp_path / "absent")
    empty = run(roles_config(assignment=assignment, switch={}), out_dir=tmp_path / "empty")
    switches = [
        json.loads(artifacts.manifest_path.read_text())["config"]["switch"]
        for artifacts in (absent, empty)
    ]
    assert switches[0] == switches[1]
    assert set(switches[0]) == {"mode", "streak_midpoint", "streak_scale"}
    assert switches[0]["streak_midpoint"] == (10.0 if assignment == "stochastic" else 1.0)


@pytest.mark.parametrize("config, library, midpoint", [
    (roles_config(rounds=10, assignment="stochastic"),
     IntersectionConfig(6, 2, 10, assignment="stochastic",
                        switch=SwitchPolicy("stochastic_sigmoid")), 10.0),
    ({"experiment": "dungeon", "n_agents": 4, "rounds": 3},
     DungeonConfig(rounds=3, n_agents=4, switch=SwitchPolicy("stochastic_sigmoid")), 3.0),
], ids=["intersection", "dungeon"])
def test_an_unset_midpoint_resolves_alike_in_the_library_and_a_config(
    tmp_path, config, library, midpoint
):
    # C(n_agents - 1, cohort): a dungeon's cohort is its one sacrificer
    blocks = {"absent": {"mode": "stochastic_sigmoid"},
              "null": {"mode": "stochastic_sigmoid", "streak_midpoint": None}}
    absent, null = (run({**config, "switch": block}, out_dir=tmp_path / name)
                    for name, block in blocks.items())
    manifest = json.loads(absent.manifest_path.read_text())
    assert manifest["config"]["switch"]["streak_midpoint"] == midpoint
    assert library.switch.streak_midpoint == midpoint
    for name in (*absent.csv_files, "manifest.json", "report.md"):
        assert (absent.out_dir / name).read_bytes() == (null.out_dir / name).read_bytes()


def _run_with_window_key(tmp_path, config):
    """A finished run whose manifest's switch block carries the `window`
    key that manifests recorded before the rotation memory window went."""
    out = tmp_path / "old"
    manifest_path = run(config, out_dir=out).manifest_path
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["switch"]["window"] = 2
    manifest_path.write_text(json.dumps(manifest))
    return out


@pytest.mark.parametrize("config", [
    roles_config(),
    {"experiment": "dungeon", "n_agents": 3, "rounds": 6},
])
def test_manifest_with_a_window_key_cannot_be_rerun(tmp_path, config):
    out = _run_with_window_key(tmp_path, config)
    with pytest.raises(ConfigError, match="config.switch: unknown keys: window"):
        run_from_manifest(out / "manifest.json", out_dir=tmp_path / "rerun")
    assert not (tmp_path / "rerun").exists()


def test_report_checks_a_manifests_solver_block_as_a_rerun_does(tmp_path, capsys):
    out = tmp_path / "old"
    manifest_path = run(roles_config(), out_dir=out).manifest_path
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["solver"]["tol"] = "tight"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["report", "--config", str(out)]) == 1
    assert capsys.readouterr().err == "error: config.solver.tol: expected a finite number\n"
    with pytest.raises(ConfigError, match=r"^config\.solver\.tol: expected a finite number$"):
        run_from_manifest(manifest_path, out_dir=tmp_path / "rerun")


def test_report_on_a_manifest_with_a_window_key_exits_zero(tmp_path):
    out = _run_with_window_key(tmp_path, roles_config())
    (out / "report.md").unlink()
    assert cli.main(["report", "--config", str(out)]) == 0
    assert (out / "report.md").exists()


def _config_with_credit_waiters(tmp_path):
    path = tmp_path / "roles.json"
    path.write_text(json.dumps(roles_config(credit_waiters=True)))
    return ["roles-run", "--config", str(path)]


def _manifest_with_credit_waiters(tmp_path):
    """A finished run whose manifest carries the `credit_waiters` key that
    manifests recorded before the option went."""
    out = tmp_path / "old"
    manifest_path = run(roles_config(), out_dir=out).manifest_path
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["credit_waiters"] = True
    manifest_path.write_text(json.dumps(manifest))
    return ["report", "--config", str(out)]


@pytest.mark.parametrize("argv", [_config_with_credit_waiters, _manifest_with_credit_waiters],
                         ids=["config", "manifest"])
def test_a_config_or_manifest_naming_credit_waiters_exits_one(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: config: unknown keys: credit_waiters\n"


def test_a_manifest_naming_credit_waiters_cannot_be_rerun(tmp_path):
    out = Path(_manifest_with_credit_waiters(tmp_path)[-1])
    with pytest.raises(ConfigError, match="^config: unknown keys: credit_waiters$"):
        run_from_manifest(out / "manifest.json", out_dir=tmp_path / "rerun")
    assert not (tmp_path / "rerun").exists()


def test_a_one_agent_dungeon_reports_only_its_size(tmp_path):
    # the switch's midpoint is resolved after the environment's sizes are
    # checked, so a bad n_agents does not also raise a cohort problem
    config = {"experiment": "dungeon", "n_agents": 1, "rounds": 3,
              "switch": {"mode": "stochastic_sigmoid"}}
    with pytest.raises(ConfigError) as excinfo:
        run(config, out_dir=tmp_path / "out")
    assert excinfo.value.problems == ["config: n_agents must be an integer >= 2, got 1"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# fuzzing: any config exits 0, 1 or 2, and a failed run writes nothing
# ---------------------------------------------------------------------------

PAYOFF = {"temptation": None, "reward": None, "punishment": None, "sucker": None}
PARAMS = {
    "n_agents": None, "threshold": None, "discount": None, "smoothing": None,
    "reward_offset": None, "consistency_weight": None, "preference_baseline": None,
    "temperature": None, "horizon": None, "reward_mode": None,
    "reward_table": {
        "move_clear": None, "wait_clear": None, "wait_congested": None,
        "move_congested": None,
    },
    "initial_distribution": None,
}
SOLVER = {"tol": None, "max_iter": None, "damping": None}
SWITCH = {"mode": None, "streak_midpoint": None, "streak_scale": None}
IPD = {
    "payoff": PAYOFF, "horizon": None, "discount": None,
    "players": [{"kind": None, "parity": None, "punishment_length": None}],
}
KNOWN_KEYS = {
    "ipd_match": IPD,
    "ipd_tournament": IPD,
    "delta_scan": {
        "payoff": PAYOFF, "grid": {"start": None, "stop": None, "step": None, "values": None},
    },
    "mfg_solve": {"params": PARAMS, "solver": SOLVER},
    "mfg_simulate": {"params": PARAMS, "episodes": None, "policy": None, "solver": SOLVER},
    "roles_run": {
        "n_agents": None, "threshold": None, "rounds": None, "cohort": None,
        "assignment": None, "static_movers": None,
        "switch": SWITCH, "mfg": PARAMS, "solver": SOLVER,
    },
    "dungeon": {
        "n_agents": None, "rounds": None, "success_reward": None, "switch": SWITCH,
    },
}


def test_the_fuzz_key_spec_names_exactly_the_keys_the_program_accepts():
    def names(target):
        return {field.name for field in dataclasses.fields(target)}

    assert list(KNOWN_KEYS) == list(harness.EXPERIMENT_KINDS)
    for kind, (_, keys) in harness._KINDS.items():
        assert set(KNOWN_KEYS[kind]) == set(keys), kind
    assert set(PARAMS) == names(MfgParams)
    assert set(PARAMS["reward_table"]) == names(RewardTable)
    assert set(SOLVER) == set(harness._SOLVER)
    assert set(SWITCH) == names(SwitchPolicy)
    assert set(PAYOFF) == names(PayoffMatrix)
    assert set(IPD["players"][0]) == {"kind", *harness._schema(Alternator)}
    assert set(KNOWN_KEYS["delta_scan"]["grid"]) == {*harness._GRID_RANGE, "values"}


# small valid configs; mutating them reaches the checks behind the key checks
VALID = {
    "ipd_match": ipd_match_config(),
    "ipd_tournament": ipd_match_config(
        experiment="ipd_tournament", players=[{"kind": "alternator"}, {"kind": "all_d"}]
    ),
    "delta_scan": delta_scan_config(),
    "mfg_solve": mfg_solve_config(),
    "mfg_simulate": dict(
        mfg_solve_config(), experiment="mfg_simulate", episodes=3, policy="equilibrium"
    ),
    "roles_run": roles_config(assignment="stochastic", switch={"mode": "stochastic_sigmoid"}),
    "dungeon": {"experiment": "dungeon", "n_agents": 3, "rounds": 6, "switch": {}},
}
WORDS = [
    "x", "alternator", "tit_for_tat", "first", "table", "formula", "uniform",
    "equilibrium", "static", "rotation", "stochastic", "policy",
    "deterministic_window", "stochastic_sigmoid",
]
SCALARS = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([-1.0, 0.0, 0.1, 0.5, 0.9, 2.5, math.nan, math.inf]),
    st.sampled_from(WORDS),
    st.just({}),
    st.none(),
    st.just(True),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


def block(spec):
    """Objects over any subset of spec's keys, sometimes with a stray key."""
    optional = {key: value_of(sub) for key, sub in spec.items()}
    return st.fixed_dictionaries({}, optional={**optional, "stray": VALUES})


def value_of(spec):
    if spec is None:
        return VALUES
    if isinstance(spec, list):
        return st.lists(st.one_of(block(spec[0]), VALUES), max_size=3)
    return st.one_of(block(spec), VALUES)


def slots(node):
    """(container, key) for every value nested in a config."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from slots(child)


@st.composite
def mutants(draw, config):
    """`config` with one to three values at any depth replaced from the
    pool or deleted, sometimes with a stray key."""
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(slots(config))))
        if draw(st.booleans()):
            container[key] = draw(VALUES)
        else:
            del container[key]
    if draw(st.booleans()):
        config["stray"] = draw(VALUES)
    return config


@pytest.mark.parametrize("kind", sorted(KNOWN_KEYS))
def test_fuzzed_configs_exit_cleanly(kind):
    spec = {**KNOWN_KEYS[kind], "seed": None, "out_dir": None}

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(block(spec), mutants(VALID[kind])))
    def check(config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            command = kind.replace("_", "-")
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 1, 2)
            assert code == 0 or not out.exists()

    check()
