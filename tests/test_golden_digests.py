"""Byte identity of emitted CSVs under every non-linear staleness penalty.

Small sweep, compare and trace-compare specs run through the CLI under
quadratic, table and piecewise penalties (non-integer values), and the
sha256 of each CSV is pinned. A change that moves any emitted number, even
in the tenth significant digit, changes a digest here.
"""

import hashlib
import json

import pytest

from agecost import CostModel, MdpConfig, solve_average, solve_discounted
from agecost.cli import main

from oracles import make_trace

PENALTIES = {
    "quadratic": {"kind": "quadratic"},
    "table": {"kind": "table", "values": [0, 0.35, 1.1, 2.7, 5.3, 9.9, 17.45, 30.2, 55.55, 100.0]},
    "piecewise": {"kind": "piecewise", "breakpoints": [[1, 0.3], [3, 2.75], [6, 11.5], [12, 100.0]]},
}

CONFIGURED = [
    {"kind": "threshold", "tau": 3},
    {"kind": "naive"},
    {"kind": "periodic", "d": 4},
    {"kind": "scheduled", "slots": [3, 9, 20, 41]},
]

DIGESTS = {
    "quadratic/sweep":
        "b5323044ba0cc542e310f633c11da5c18f7a8d0f50470ba9c6c7d5483e86d2fd",
    "quadratic/compare":
        "a5b96341ab99d5b20375e0bdc09ca65e3f906a18c0cb811fd49410dbdd5e6a63",
    "quadratic/compare-configured":
        "d7cf5373f4a54977926f6e3a9dec0083dec5338e8ec1f9477a6ea7337a424d8b",
    "quadratic/trace":
        "2781f46e3cb33b54ddd2b00636d4dc9612eaab37a390d5ccb645b208a095859b",
    "table/sweep":
        "9a356d776c9525220a8891e2f3e3a10c55de071fb81451449efe0a086b15e503",
    "table/compare":
        "e4adf267b8d70506b36524f3b490ed21d2233f926d761341a51dbc4daebb5fd4",
    "table/compare-configured":
        "c1b8f8912b4144aebff7fa4b5ce034b1da76be3174a533c56a6616c9dc51676f",
    "table/trace":
        "67382af4de84de7e2f3739e3dff19af42e34f444c88cb2dd2044f5c274a6617a",
    "piecewise/sweep":
        "6250fd29dbf0ddf1c4e3da919c99139d21f9a36b2573617a8776910d586efe6b",
    "piecewise/compare":
        "d76c29f57d6e4e0298a648e343a5f173927fe8b0ab8d466963f6b165af2d5b62",
    "piecewise/compare-configured":
        "07c2467f9b54863e62336e4f9f49830188f161328317888a755b55cff1ce4bec",
    "piecewise/trace":
        "16046da9bca40ae14e29aa129f9feb8d056771e7f9b317c9c0f7c3542aa82794",
}


def _commands(staleness, tmp_path):
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=150, horizon=400, seed=19)
    model = {"staleness": staleness, "update_cost": 40.0}
    return {
        "sweep": ("sweep-threshold", {
            "model": model, "arrival": {"kind": "bernoulli", "rate": 0.3},
            "grid": [1, 2, 3, 5, 8], "n_runs": 3, "n_requests": 200, "base_seed": 7}),
        "compare": ("compare", {
            "model": model, "arrival": {"kind": "bernoulli", "rate": 0.45},
            "grid": [7.5, 33.3], "n_runs": 3, "n_requests": 150, "base_seed": 8}),
        "compare-configured": ("compare", {
            "model": model, "arrival": {"kind": "bernoulli", "rate": 0.45}, "policies": CONFIGURED,
            "grid": [7.5, 33.3], "n_runs": 3, "n_requests": 150, "base_seed": 8}),
        "trace": ("trace-compare", {
            "model": model, "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
            "n_requests": 150}),
    }


@pytest.mark.parametrize("penalty", sorted(PENALTIES))
def test_csv_digests_are_pinned(penalty, tmp_path, capsys):
    digests = {}
    for name, (command, spec) in _commands(PENALTIES[penalty], tmp_path).items():
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps(spec))
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "compare":
            argv += ["--sweep", "cost"]
        assert main(argv) == 0, capsys.readouterr().err
        digests[f"{penalty}/{name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {k: v for k, v in DIGESTS.items() if k.startswith(f"{penalty}/")}


def test_multi_chunk_trace_csv_digest_is_pinned(tmp_path, capsys):
    # 40,000 requests under three policies give 120,000 rows: the writer
    # crosses many chunk boundaries, and the policy label changes inside a
    # chunk. Pinned before the CSV writer was vectorised.
    trace = tmp_path / "trace.csv"
    make_trace(trace, n_requests=40_000, horizon=100_000, seed=23)
    cfg, out = tmp_path / "spec.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({
        "model": {"staleness": {"kind": "quadratic"}, "update_cost": 40.0},
        "arrival": {"kind": "trace", "path": str(trace), "slot_duration": 1.0},
        "n_requests": 40_000}))
    assert main(["trace-compare", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    data = out.read_bytes()
    assert data.count(b"\n") == 1 + 120_000
    assert hashlib.sha256(data).hexdigest() == "bbc81587194c664a5bcc3a850a28bc66353c1d88c55484685cd52c1e91c3b1e8"


def test_mixed_window_cost_sweep_csv_digest_is_pinned(tmp_path, capsys):
    # At rate 0.3 and 600 requests, p = 2 keeps a window of a few requests
    # while p = 2000 reaches back over every earlier one: the offline optima
    # of all 9 paths are solved as one batch that mixes both. Pinned before
    # the offline DP solved paths in batches.
    cfg, out = tmp_path / "spec.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({
        "model": {"staleness": {"kind": "linear"}, "update_cost": 50.0},
        "arrival": {"kind": "bernoulli", "rate": 0.3}, "grid": [2, 50, 2000], "n_runs": 3, "n_requests": 600}))
    assert main(["compare", "--sweep", "cost", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0979e4127e1386ac22a0e9e70bca6711a6b92eb21e840305c9ac4fa9e3aaee96"


@pytest.mark.parametrize("staleness, digest, stdout", [
    ("linear", "f2e7e50d145591cba313f020d45cf1e4bb7dbf90aa081e49f484b88296dd89d4", "gain=36.2173913 threshold=37"),
    ("quadratic", "4652ddd1006ab014039cf268d2d4d3643dda65a3831f283603043dda75ebd4b5", "gain=66.88888889 threshold=9"),
])
def test_solve_mdp_dump_digest_is_pinned(staleness, digest, stdout, tmp_path, capsys):
    # The README `solve-mdp` and its quadratic twin: the relative values,
    # actions, gain and threshold. The iteration count is not pinned; it
    # depends on where policy iteration starts, not on what it reaches.
    out = tmp_path / "policy.csv"
    argv = ["solve-mdp", "--lambda", "0.1", "--p", "100", "--staleness", staleness, "--out", str(out)]
    assert main(argv) == 0
    gain, threshold = capsys.readouterr().out.split()[:2]
    assert f"{gain} {threshold}" == stdout
    data = out.read_bytes()
    assert data.count(b"\n") == 1026
    assert hashlib.sha256(data).hexdigest() == digest


MDP_MODELS = {
    "linear": ({"kind": "linear"}, 100.0),
    "quadratic": ({"kind": "quadratic"}, 100.0),
    "table": (PENALTIES["table"], 40.0),
    "piecewise": (PENALTIES["piecewise"], 40.0),
}

MDP_DIGESTS = {
    "linear/average":
        "efc274e1889364221a37c9f5337deb77196dca76d3143fdf0c034eecb898b715",
    "linear/discounted=0.9":
        "872a1246ae1f7702ff3eff75202ca41496471b2edc2ab29c5708e9f4589e5dc5",
    "linear/discounted=0.999":
        "d42ded54c712174e2b0e3884e5b7ea2e28d291512386244da19fa9bc8a3a992c",
    "piecewise/average":
        "55b337ce7b66da333b1cc70d0e47c158d32b80cf309580cb82535a5637e89867",
    "piecewise/discounted=0.9":
        "e25de03b3e429a83138bc2d3844d528271e7c401dad1ab93a4a4c30ebda922e0",
    "piecewise/discounted=0.999":
        "012edf2116d78f31a03ba196e599c52f4de275398e4311a4e1495976841cbb67",
    "quadratic/average":
        "a9aa4cf737e64dda1922be0c1a02a0d30467700fd2ab88bc13f9c567e05f97fb",
    "quadratic/discounted=0.9":
        "eca7512b838f61c1cd834bf74cfe02174045a5e50e8a2617f8bdba12da538bb1",
    "quadratic/discounted=0.999":
        "0beedac44e82b444a7c6712d0f621c725c49e047515f131a8733c5119fce0f44",
    "table/average":
        "29622a88598ecc114e6b0a14a646b2894356c272cd3f4959eb5298611603bfd1",
    "table/discounted=0.9":
        "9d653bfbce54c77d4cf20e88f69108d632c6204f6b8f4f62fc5405356f72309e",
    "table/discounted=0.999":
        "f2d3341e89886ce644cd871013c3ea93a54331cb0cc9d8f27826dbb5ccac28c8",
}


MDP_CRITERIA = {"average": None, "discounted=0.9": 0.9, "discounted=0.999": 0.999}


def _mdp_digest(penalty, criterion):
    staleness, p = MDP_MODELS[penalty]
    model = CostModel.from_config({"staleness": staleness, "update_cost": p})
    discount = MDP_CRITERIA[criterion]
    h = hashlib.sha256()
    for rate in (0.02, 0.1, 0.45):
        if discount is None:
            sol = solve_average(MdpConfig(rate=rate, model=model, state_cap=300))
        else:
            sol = solve_discounted(MdpConfig(rate=rate, model=model, state_cap=300, discount=discount))
        h.update(sol.values.astype("<f8").tobytes())
        h.update(sol.actions.astype("i1").tobytes())
        h.update(repr((sol.gain, sol.threshold, sol.iterations_used)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("penalty", sorted(MDP_MODELS))
def test_mdp_solution_digests_are_pinned(penalty):
    # Every reported value and action, the gain, the threshold and the
    # number of policy evaluations of both solvers, at three rates, under
    # every penalty kind. Pinned before the scan inputs were built in place.
    digests = {f"{penalty}/{c}": _mdp_digest(penalty, c) for c in MDP_CRITERIA}
    assert digests == {k: v for k, v in MDP_DIGESTS.items() if k.startswith(f"{penalty}/")}
