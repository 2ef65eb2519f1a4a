"""Every shipped config must keep producing the same bytes.

The SHA-256 of each artifact of each `configs/*.json` run (the CSVs,
manifest.json and report.md) was recorded before the harness's config
reader was derived from the dataclasses, with numpy 2.4 on x86-64. The
mfg_solve flow.csv, diag.csv and manifest.json and the mfg_simulate
sim.csv and manifest.json were re-pinned when the transition kernel was
stored as its distinct rows: reordered float sums moved their last
printed digit (at most 7.1e-15). The mfg_solve diag.csv, manifest.json
and report.md and the mfg_simulate sim.csv and manifest.json were
re-pinned when one kernel stack began to serve a whole policy: the
matrix-vector products run over the stack's height, which moved their
last printed digit again (at most 5.3e-15). The dungeon, roles_run and
roles_run_stochastic manifest.json were re-pinned when the rotation memory
window, which changed no assignment, was deleted: `config.switch` lost its
`window` key. The dungeon report.md was re-pinned when `run` began to
render the report from the manifest text as `coopdyn report` does, so
`sacrifice_counts` prints its keys as the strings JSON makes of them. The
mfg_simulate sim.csv, manifest.json and report.md were re-pinned when the
simulator began to draw each step's mover count as one Binomial(N, p)
from a single seeded stream instead of N uniforms from a generator per
episode (deviation 0.00622 -> 0.00690). The dungeon manifest.json was
re-pinned when the unread `sacrifice_cost` key was deleted. The dungeon
rounds.csv was re-pinned when its `success` column, `1` on every row, was
deleted, and the roles_run and roles_run_stochastic manifest.json when the
`credit_waiters` option, `true` in every config, was deleted. The
roles_run and roles_run_stochastic manifest.json and report.md were
re-pinned when the summary's `sacrifice_gap` key was deleted: it repeated
`mover_count_gap`, read from the same fairness field. The mfg_simulate
sim.csv (05f72c9f... -> 6cada8ba...), manifest.json (75c147be... ->
a96029e6...) and report.md (d95c01f4... -> 43e95f68...) were re-pinned
when the simulator began to sample the visit histogram, one multinomial
per (step, kernel row in use), instead of one binomial per (episode,
step): the law is the same, the draws are new (deviation 0.00690 ->
0.00664). Every mfg_solve and mfg_simulate file was re-pinned when the
solver began from the backward-induction policy, which one damped sweep
verifies, instead of iterating from the uniform policy: the solve stops
after 1 sweep instead of 27 (24 for mfg_simulate), `diag.csv` holds one
row, and the policy moves by at most 3.5e-9, the flow by 9.4e-9 and the
values by 2e-11, all within the old solve's tol of 1e-8 (exploitability
0.4896877389 -> 0.4896877322, deviation 0.0066407296 -> 0.0066407403).
A refactor that changes any of these bytes must say why and re-pin them.
"""

import hashlib
from pathlib import Path

import pytest

from coopdyn.harness import load_config, regenerate_report, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "delta_scan": {
        "manifest.json": "2124d84d4e0d083dbefaf459067ea310bdef988f77f8473c95c39b14b9a08e0b",
        "report.md": "df29e9ded599f10c2053092f75a7ed0ebe412de430557b7fa877b3ecf2b183b2",
        "scan.csv": "c64c42ca03ded08eb91f67e725b9626587c3422887cdd68d01edf05e054a8c59",
    },
    "dungeon": {
        "manifest.json": "2983832d5e87b5cc422f5b094db60f20720f947a6c08b63beb25c4f770315c1d",
        "report.md": "02cc25953b08541f37ea820ac28aecea3b3c9b16058c15fa0473ae32a6feb0d2",
        "roles.csv": "c26210de9b77fa22844ab0cead13347878888a09aceb7f90cff2df79bf86770c",
        "rounds.csv": "26928129d7f24c89098ed5ed80b541ade575e12cbc391d489ab914f81307e5ff",
    },
    "ipd_match": {
        "manifest.json": "3d67c090bd907acf3bdde44c77cb1626121eb3edce564298ba6a1c81ffc3644f",
        "report.md": "38860b08dd809735784d06d7aa77fc9150d826c5e6191e4e720b917a5527e0be",
        "trajectory.csv": "90284ba634575c62eb1a2956f3808c0e973903ba699bd63e4e946fd51b119019",
    },
    "ipd_tournament": {
        "manifest.json": "a4015fd46d9aea90b5e9ca157751fb93110258412fb93bdf1350c5be5d6d384a",
        "report.md": "9c0595d9e1a880b1c0f24983eca60ed00b816352aa10d6d1c43453273e56ccea",
        "scores.csv": "f981effd72ef98c3d467c92110f0595d1b848fc9a035baff13fde90b62bf0b39",
    },
    "mfg_simulate": {
        "manifest.json": "ef3c1a99862520b46ddeab4d6cf2de817252d263c1cb0e0c39ecf1c4533b2cb3",
        "report.md": "e8583785cbae2b26574ff53841bb5c442996da673f58188aa278334fbaf65312",
        "sim.csv": "0b9cfa1d9fee065d416024252048cbb46587d237c6e0bc1a3a83b99ec158e9fb",
    },
    "mfg_solve": {
        "diag.csv": "25a6627fc0c3c54ffea1049e2696a2dc84dab9da9b3fa10115508973040177b5",
        "flow.csv": "b51814505d1f635d45aed51c204475267c3737565257e1a357329b942043fd66",
        "manifest.json": "781951959686dab721d44b5c832cf757e34b4e67f30cc2a51a6f035a62b55812",
        "policy.csv": "c97bde835ca55cc70fd9dcc37dea0ea173db1d8b894df99256675f53e179ecea",
        "report.md": "738603ca9595becf9abf53941d826c07abe65ad7fdbd9c58876ec9338f2e3907",
        "values.csv": "9b539874f665698aea556db27349fe617e72b416f07637b7284f9eddd91188df",
    },
    "roles_run": {
        "manifest.json": "09b79d41e863a277c4cf58497821d51fc8c43999226adc298240ee8da8223cf9",
        "report.md": "308b8f42bc84d7af5c41d7a155439925f915d3098c912b1516e693e646dcd51b",
        "roles.csv": "fa4a6b94090d00ec8f9c1c37904b75f3793c9101f7eff206e646dc9440e33245",
        "rounds.csv": "2bc83d65e26252d79a34a88c1a4291d5cd4484928edac3b14af83dbc20a7201a",
    },
    "roles_run_stochastic": {
        "manifest.json": "e468ae99158379e3af474f04d017dd8cbe2c3a92905ac37d85af95614274a747",
        "report.md": "831c46e2b59d201d2089ac21fef7b8388202d50dae5092390e847b8f2bd338d5",
        "roles.csv": "fdc1e19370f6269dd0d2d759247cd3cfe22fe7bf295418f9d23c9aacaa2db28f",
        "rounds.csv": "b5d47730932230b40ad6ae078cf9c4cb6081a0e8f650b392f41e7b6ebaab56fb",
    },
}


def test_every_shipped_config_is_pinned():
    assert sorted(path.stem for path in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_outputs_are_byte_identical(tmp_path, name):
    run(load_config(CONFIGS / f"{name}.json"), out_dir=tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_regenerated_report_is_byte_identical(tmp_path, name):
    artifacts = run(load_config(CONFIGS / f"{name}.json"), out_dir=tmp_path)
    written = artifacts.report_path.read_bytes()
    assert regenerate_report(tmp_path).read_bytes() == written
