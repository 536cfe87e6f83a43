import json

import pytest

from conepol.cli import EXIT_FAILED, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_fano_text(capsys):
    code, out, _ = run(capsys, ["charpoly", "--fano"])
    assert code == 0
    assert "chibar(t) = t^2 - 6*t + 8" in out
    assert "abs coeffs (leading first): 1, 6, 8" in out
    assert "log-concave: true" in out


def test_charpoly_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["charpoly", "--uniform", "3", "4", "--format", "json"])
    code2, out2, _ = run(capsys, ["charpoly", "--uniform", "3", "4", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["chibar"] == ["1", "-3", "3"]
    assert payload["log_concave"] is True


def test_charpoly_loops_exit_2(capsys, tmp_path):
    path = tmp_path / "loopy.json"
    path.write_text(json.dumps({"n": 2, "bases": [[0]]}))
    code, _, err = run(capsys, ["charpoly", "--matroid", str(path)])
    assert code == 2
    assert "HasLoops" in err


def test_pol_u23_text(capsys):
    code, out, _ = run(capsys, ["pol", "--uniform", "2", "3"])
    assert code == 0
    assert out.strip() == "t_{0} + t_{1} + t_{2}"


def test_pol_eval_alpha_beta(capsys):
    code, out, _ = run(capsys, ["pol", "--uniform", "3", "3", "--eval", "alpha"])
    assert code == 0
    assert "value: 1/2" in out
    code, out, _ = run(capsys, ["pol", "--fano", "--eval", "beta"])
    assert code == 0
    assert "value: 4" in out


def test_pol_subinterval(capsys):
    code, out, _ = run(
        capsys, ["pol", "--fano", "--interval", "0", "0,1,2,3,4,5,6"]
    )
    assert code == 0
    # interval above a point: variables are the three lines through it
    assert out.count("t_{") == 3


def test_certify_ok_and_deterministic(capsys):
    argv = ["certify", "--uniform", "3", "3", "--samples", "4", "--seed", "7",
            "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] is True
    assert payload["seed"] == 7
    assert len(payload["samples"]) == 4


def test_certify_rank_two_subinterval(capsys):
    # degree-1 interval: the certificate rests on positivity alone
    code, out, _ = run(
        capsys,
        ["certify", "--fano", "--interval", "0", "0,1,2,3,4,5,6",
         "--samples", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert all(s["inertia"] is None for s in payload["samples"])


def test_certify_failure_names_contraction_and_inertia(capsys, monkeypatch):
    from conepol import lorentz

    real = lorentz.inertia
    calls = []

    def two_positives_after_first(H):
        calls.append(H)
        if len(calls) == 1:
            return real(H)
        return lorentz.InertiaTriple(2, 0, len(H) - 2)

    monkeypatch.setattr(lorentz, "inertia", two_positives_after_first)
    argv = ["certify", "--uniform", "3", "3", "--samples", "3", "--seed", "4"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_FAILED
    calls.clear()
    _, json_out, _ = run(capsys, argv + ["--format", "json"])
    samples = json.loads(json_out)["samples"]
    assert [s["passed"] for s in samples] == [True, False, False]
    # U(3,3): inertia sees order 4, two of the three atoms' kernel vectors dropped
    assert samples[1]["inertia"] == [2, 2, 2]
    assert out.splitlines()[-1] == (
        f"first failing tuple: 1 (contraction {samples[1]['contraction']}, "
        "inertia 2 2 2)"
    )


def test_certify_direction_file_not_in_cone(capsys, tmp_path):
    path = tmp_path / "dirs.json"
    bad = {
        "K": [],
        "L": [0, 1, 2],
        "values": {"0": "-6", "1": "-6", "2": "-6", "0,1": "-4", "0,2": "-4",
                   "1,2": "-4"},
    }
    path.write_text(json.dumps({"tuples": [[bad, bad]]}))
    code, _, err = run(
        capsys,
        ["certify", "--uniform", "3", "3", "--directions", str(path)],
    )
    assert code == 2
    assert "DirectionNotInCone" in err
    assert "tuple 0: direction is not strictly submodular: margin -8 at {0} and {1}" in err


def test_chow_verify_full_and_all(capsys):
    code, out, _ = run(capsys, ["chow-verify", "--uniform", "3", "4"])
    assert code == 0
    assert "verdict: true" in out
    code, out, _ = run(capsys, ["chow-verify", "--fano", "--all-intervals"])
    assert code == 0
    assert "verdict: true" in out


def test_chow_verify_size_guard(capsys):
    code, _, err = run(capsys, ["chow-verify", "--uniform", "4", "5"])
    assert code == 4
    assert "SizeLimitExceeded" in err


def test_poset_check(capsys):
    code, out, _ = run(capsys, ["poset-check", "--fano", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["flats"] == 16


def test_poset_check_two_k4_sharing_a_vertex(capsys, tmp_path):
    k4 = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    bowtie = k4 + [[a + 3, b + 3] for a, b in k4]
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps({"edges": bowtie}))
    code, out, _ = run(capsys, ["poset-check", "--graphic", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["flats"] == 225
    assert len(payload["checks"]) == 5 and all(payload["checks"].values())
    assert payload["verdict"] is True


def test_usage_error_exit_1(capsys):
    code, _, _ = run(capsys, ["charpoly"])
    assert code == 1


def test_invalid_interval_exit_2(capsys):
    code, _, err = run(
        capsys, ["pol", "--uniform", "2", "3", "--interval", "0,1", "0,1,2"]
    )
    assert code == 2  # {0,1} is not a flat of U_{2,3}


def test_graphic_matroid_from_file(capsys, tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    code, out, _ = run(capsys, ["charpoly", "--graphic", str(path)])
    assert code == 0
    assert "chibar(t) = t^2 - 5*t + 6" in out


def test_matroid_file_with_explicit_bases(capsys, tmp_path):
    path = tmp_path / "u23.json"
    path.write_text(json.dumps({"n": 3, "bases": [[0, 1], [0, 2], [1, 2]]}))
    code, out, _ = run(capsys, ["charpoly", "--matroid", str(path)])
    assert code == 0
    assert "chibar(t) = t - 2" in out


def test_chow_verify_empty_selection_exit_1(capsys):
    code, out, err = run(
        capsys, ["chow-verify", "--fano", "--all-intervals", "--max-degree", "-1"]
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "no interval" in err


def test_chow_verify_interval_with_all_intervals_exit_1(capsys):
    code, out, err = run(
        capsys,
        ["chow-verify", "--fano", "--all-intervals", "--interval", "empty", "0,1,2"],
    )
    assert code == 1
    assert out == ""
    assert "not allowed with argument --all-intervals" in err


def test_chow_verify_max_degree_without_all_intervals_exit_1(capsys):
    code, out, err = run(capsys, ["chow-verify", "--fano", "--max-degree", "1"])
    assert code == 1
    assert out == ""
    assert err == ("conepol chow-verify: error: argument --max-degree: "
                   "only allowed with --all-intervals\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_certify_nonpositive_samples_exit_1(capsys, samples):
    code, out, err = run(capsys, ["certify", "--uniform", "3", "3", "--samples", samples])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_certify_empty_direction_file_exit_1(capsys, tmp_path):
    path = tmp_path / "dirs.json"
    path.write_text(json.dumps({"tuples": []}))
    code, out, err = run(
        capsys, ["certify", "--uniform", "3", "3", "--directions", str(path)]
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1


VECTOR = {"K": [], "L": [0, 1, 2], "values": {"0": "1"}}

MALFORMED = [
    ("charpoly", "--matroid", [1, 2]),
    ("charpoly", "--matroid", "fano"),
    ("charpoly", "--matroid", {"n": 3}),
    ("charpoly", "--matroid", {"n": "3", "bases": [[0, 1]]}),
    ("charpoly", "--matroid", {"n": 3, "bases": [[0, [1]]]}),
    ("charpoly", "--matroid", {"n": 3, "bases": [[0, None]]}),
    ("charpoly", "--matroid", {"n": 3, "bases": [[0, True]]}),
    ("charpoly", "--matroid", {"n": 3, "bases": {"0": 1}}),
    ("charpoly", "--matroid", {"n": 2, "bases": [[0, 1]], "labels": "ab"}),
    ("charpoly", "--matroid", {"type": "uniform", "r": [2], "n": 3}),
    ("charpoly", "--matroid", {"type": "graphic", "edges": [[0, 1, 2]]}),
    ("charpoly", "--graphic", [1, 2]),
    ("charpoly", "--graphic", {"edges": 5}),
    ("charpoly", "--graphic", {"nodes": [[0, 1]]}),
    ("charpoly", "--graphic", [[0, 1], [1, None]]),
    ("charpoly", "--graphic", [[0, 1], [1, "a"]]),
    ("certify", "--directions", {"tuples": 3}),
    ("certify", "--directions", {"tuples": [VECTOR]}),
    ("certify", "--directions", [[[0, 1, 2]]]),
    ("certify", "--directions", [[{"K": [], "L": "012"}]]),
    ("certify", "--directions", [[{"K": [], "L": [0, 1, 2], "values": [1]}]]),
    ("certify", "--directions", [[{"K": [], "L": [0, 1, 2], "values": {"0": None}}]]),
    ("certify", "--directions", [[{"K": [], "L": [0, 1, 2], "values": {"0": "1/0"}}]]),
    ("pol", "--eval", [1]),
    ("pol", "--eval", {"K": [], "L": [0, 1, 2], "values": {"0": 0.5}}),
    ("pol", "--eval", {"K": [], "L": [0, 1, 2], "values": {"0": "1e5"}}),
    ("pol", "--eval", {"K": [], "L": [0, 1, 2], "values": {"0": "1.5"}}),
    # file text that json.load refuses, written as bytes: json.dumps itself
    # refuses a 5,001-digit int
    pytest.param("charpoly", "--matroid", b"not json", id="not-json"),
    pytest.param("charpoly", "--graphic", b"\xff\xfe[]", id="not-utf8"),
    pytest.param("pol", "--eval", b'{"K": [], "L": [0, 1, 2], "values": {"0": '
                 + b"7" * 5001 + b"}}", id="long-int"),
    pytest.param("charpoly", "--matroid", b"[" * 100_000, id="deep"),
]


@pytest.mark.parametrize("command,flag,payload", MALFORMED)
def test_malformed_json_input_exit_2(capsys, tmp_path, command, flag, payload):
    path = tmp_path / "input.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    if flag in ("--matroid", "--graphic"):
        argv = [command, flag, str(path)]
    else:
        argv = [command, "--uniform", "3", "3", flag, str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("MalformedInput: ")
    if isinstance(payload, bytes):
        assert lines[0].startswith(f"MalformedInput: {path} is not readable JSON: ")


def test_missing_json_file_stays_an_os_error(capsys, tmp_path):
    code, out, err = run(capsys, ["charpoly", "--matroid", str(tmp_path / "none.json")])
    assert (code, out) == (2, "")
    assert err.startswith("FileNotFoundError: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--uniform", "2", "17"],
        ["pol", "--uniform", "2", "17", "--eval", "alpha"],
    ],
)
def test_interval_span_cap_is_a_size_guard(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "SizeLimitExceeded: interval span 17 exceeds the cap of 16"
    ]


def test_malformed_interval_elements_exit_2(capsys):
    code, out, err = run(capsys, ["pol", "--fano", "--interval", "a", "b"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["MalformedInput: malformed element list 'a'"]


def test_malformed_vector_key_exit_2(capsys, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"K": [], "L": [0, 1, 2], "values": {"a": "1"}}))
    code, out, err = run(capsys, ["pol", "--uniform", "3", "3", "--eval", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["MalformedInput: malformed element list 'a'"]


@pytest.mark.parametrize("command", ["charpoly", "poset-check"])
def test_interval_is_refused_where_it_would_be_ignored(capsys, command):
    code, out, err = run(capsys, [command, "--uniform", "2", "3", "--interval", "0", "5"])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --interval 0 5" in err


@pytest.mark.parametrize(
    "argv", [["pol"], ["certify"], ["chow-verify"], ["pol", "--interval", "0,1", "0,1"]]
)
def test_rank_zero_default_interval_is_refused_alike(capsys, argv):
    """A rank-0 matroid has one flat E, so its whole lattice [E, E] is no
    interval; every command that takes one refuses it with one message."""
    code, out, err = run(capsys, [argv[0], "--uniform", "0", "2", *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["InvalidParams: interval needs K strictly below L"]


def test_uniform_ground_cap_is_a_size_guard(capsys):
    code, out, err = run(capsys, ["charpoly", "--uniform", "1", "65"])
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "SizeLimitExceeded: ground set of 65 elements exceeds the cap of 64"
    ]


def test_graphic_ground_cap_is_a_size_guard(capsys, tmp_path):
    # a path on 66 vertices: 65 edges, 65 elements
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"edges": [[v, v + 1] for v in range(65)]}))
    code, out, err = run(capsys, ["charpoly", "--graphic", str(path)])
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "SizeLimitExceeded: ground set of 65 elements exceeds the cap of 64"
    ]


def test_empty_ground_stays_invalid_input(capsys):
    code, out, err = run(capsys, ["charpoly", "--uniform", "0", "0"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "InvalidParams: uniform matroid needs 0 <= r <= n, got r=0, n=0"
    ]


def test_uniform_basis_cap_refuses_before_enumerating(capsys):
    code, out, err = run(capsys, ["charpoly", "--uniform", "32", "64"])
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "SizeLimitExceeded: 1832624140942590534 bases exceed the cap of 20000"
    ]


def test_graphic_basis_cap_stops_the_forest_walk(capsys, tmp_path):
    # K8 has 8^6 = 262,144 spanning trees
    path = tmp_path / "k8.json"
    path.write_text(json.dumps({"edges": [[u, v] for v in range(8) for u in range(v)]}))
    code, out, err = run(capsys, ["poset-check", "--graphic", str(path)])
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "SizeLimitExceeded: 20001 bases found so far exceed the cap of 20000"
    ]
