"""Write a byte-comparable snapshot of the CLI's outputs.

    PYTHONPATH=src python3 tools/cli_snapshot.py OUTDIR

Runs ``netsteer.cli.main`` in process for a fixed list of commands
(``verify-swap``, three ``activation`` sweeps, a one-point ``verify-swap``
and a one-point 12-party ``activation``, ``claims-demo`` for both
axis presets at four visibilities, and ``nlhs --realize --model-out`` on
the bundled fixtures, the benchmark's Werner fixture and twelve extra
fixtures written into OUTDIR).  Each command runs twice, once per output
format.  For each command it writes the JSON report as written, key order
and layout included, with the value of ``wall_time`` and of
``inputs.fixture`` each replaced by ``null`` on its line (``_blanked``), the CSV report as written
(``<name>.csv``), the ``--model-out`` file where there is one, that file
reloaded with ``nlhs_io.load_model`` and written again with
``model_to_json`` (``<name>.model.reloaded.json``, so the JSON reader is
pinned as well as the writer), and ``<name>.exit`` holding the exit code
and stderr of both runs.  Two snapshots of the same outputs compare equal
under ``diff -r``; the ``fixtures/`` subdirectory is input, not output.

It also writes ``library-lines.json``, a library-level record of lines
whose branches repeat, which no CLI command contracts: for the two
13-party lines of doubly-erased Werner sources (eta 0.9, omega 0.95 and
0.86) and one seeded line of mixed local dims, the SHA-256 of
``line_assemblage``'s ``matrices`` and of the ``_row_extremes`` its PSD
check kept for the negativity precondition (NaN for the rows its screen
proved PSD), and the verdict of ``certify_network_steering``, each witness
entry as its ``repr``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import netsteer as ns
from netsteer.cli import main
from netsteer.nlhs_io import load_model, model_to_json

REPO = Path(__file__).resolve().parent.parent

BUNDLED = ("sep_loc_sep", "uns_sep_uns", "sep_uns_uns", "uns_uns_sep", "percolation_star_n6")

CC2 = {"kind": "classical_correlated", "d": 2}
SWAP2 = {"kind": "bell_swap", "local_dim": 2}
COMP2 = {"kind": "computational", "d": 2}


def _werner(omega):
    return {"kind": "werner", "omega": omega}


EXTRA_FIXTURES = {
    "sep-uns-sep": (["SEP", "UNS_RIGHT", "SEP"], [_werner(0.3), _werner(0.4), CC2], [SWAP2, SWAP2]),
    "uns-sep": (["UNS_LEFT", "SEP"], [_werner(0.4), _werner(0.3)], [SWAP2]),
    "cc-comp-uns": (["SEP", "UNS_RIGHT"], [CC2, _werner(0.4)], [COMP2]),
    "cc-loc-cc-comp": (["SEP", "LOC", "SEP"], [CC2, _werner(0.5), CC2], [COMP2, SWAP2]),
    "sep-sep": (["SEP", "SEP"], [_werner(0.3), CC2], [SWAP2]),
    # over the search limit unless equal inputs are merged (10 inputs, 3 distinct)
    "werner-comp-uns": (["SEP", "UNS_RIGHT"], [_werner(0.3), _werner(0.4)], [COMP2]),
    "werner-loc-cc-comp": (["SEP", "LOC", "SEP"], [_werner(0.3), _werner(0.5), CC2], [COMP2, SWAP2]),
    # two UNS_LEFT slots left of an UNS_RIGHT one: the transcript shows the resolution order
    "uns-uns-sep-uns": (["UNS_LEFT", "UNS_LEFT", "SEP", "UNS_RIGHT"],
                        [_werner(0.3), _werner(0.3), CC2, _werner(0.4)], [SWAP2] * 3),
    # the only fixture with a DEW source: pins ``dew`` through the fixture reader
    "dew-sep": (["UNS_LEFT", "SEP"], [{"kind": "dew", "eta": 0.5, "omega": 0.4},
                                      {"kind": "classical_correlated", "d": 3}],
                [{"kind": "bell_swap", "local_dim": 3}]),
    # hidden states plugged into factor 1 of a 4-outcome POVM, through the brute-force search
    "uns-cc-comp": (["UNS_LEFT", "SEP"], [_werner(0.4), CC2], [COMP2]),
    # a LOC behaviour with a computational measurement on its right
    "cc-loc-cc-swapcomp": (["SEP", "LOC", "SEP"], [CC2, _werner(0.5), CC2], [SWAP2, COMP2]),
    # the only ``explicit`` source, the product state (I + 0.3 Y)/2 (x) (I + 0.2 X)/2:
    # pins the reader of a state's real and imaginary parts
    "explicit-sep": (["UNS_LEFT", "SEP"],
                     [{"kind": "explicit", "state": {
                         "re": [[0.25, 0.05, 0.0, 0.0], [0.05, 0.25, 0.0, 0.0],
                                [0.0, 0.0, 0.25, 0.05], [0.0, 0.0, 0.05, 0.25]],
                         "im": [[0.0, 0.0, -0.075, -0.015], [0.0, 0.0, -0.015, -0.075],
                                [0.075, 0.015, 0.0, 0.0], [0.015, 0.075, 0.0, 0.0]],
                         "dims": [2, 2]}}, CC2],
                     [SWAP2]),
}


def commands(outdir: Path) -> list[tuple[str, list[str]]]:
    cmds = [
        ("verify-swap", ["verify-swap"]),
        ("activation-n3", ["activation", "--n", "3"]),
        ("activation-n5", ["activation", "--n", "5", "--eta-boundary", "--omega-steps", "1001"]),
        ("activation-n8", ["activation", "--n", "8", "--eta-boundary", "--omega-min", "0.80",
                           "--omega-max", "0.95", "--omega-steps", "151"]),
        # one-point grids, the second on a long line
        ("verify-swap-single", ["verify-swap", "--eta-min", "0.5", "--eta-max", "0.5",
                                "--eta-steps", "1", "--omega-min", "0.9", "--omega-max", "0.9",
                                "--omega-steps", "1"]),
        ("activation-n12-single", ["activation", "--n", "12", "--eta-boundary",
                                   "--omega-min", "0.95", "--omega-max", "0.95",
                                   "--omega-steps", "1"]),
    ]
    for axes in ("zx", "zxy"):
        for omega in ("0.6", "0.75", "0.9", "1.0"):
            cmds.append((f"claims-{axes}-{omega}", ["claims-demo", "--omega", omega, "--axes", axes]))
    fixtures = [(name, name) for name in BUNDLED]
    fixtures.append(("werner_sep_uns", str(REPO / "perfbench" / "fixtures" / "werner_sep_uns.json")))
    fixture_dir = outdir / "fixtures"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    for name, (pattern, sources, measurements) in EXTRA_FIXTURES.items():
        path = fixture_dir / f"{name}.json"
        path.write_text(json.dumps(
            {"name": name, "pattern": pattern, "sources": sources, "measurements": measurements}
        ))
        fixtures.append((name, str(path)))
    for name, fixture in fixtures:
        model_out = outdir / f"nlhs-{name}.model.json"
        cmds.append((f"nlhs-{name}", ["nlhs", "--fixture", fixture, "--realize",
                                      "--model-out", str(model_out)]))
    return cmds


def _mixed_line(seed: int = 3, n: int = 9) -> ns.LinearNetwork:
    """Random full-rank sources and two-outcome projective measurements on
    local dims cycling through 2, 3 and 4, from ``seed``."""
    rng = np.random.default_rng(seed)
    local = [(2, 3, 4)[i % 3] for i in range(n)]
    sources = []
    for a, b in zip(local, local[1:]):
        g = rng.normal(size=(a * b, a * b)) + 1j * rng.normal(size=(a * b, a * b))
        rho = g @ g.conj().T
        sources.append(ns.QOperator(rho / np.trace(rho), (a, b)))
    central = []
    for d in local[1:-1]:
        q, _ = np.linalg.qr(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
        halves = [q[:, i::2] @ q[:, i::2].conj().T for i in range(2)]
        central.append(ns.POVM([ns.QOperator(e, (d, d)) for e in halves]))
    return ns.LinearNetwork(sources, central)


def library_lines() -> dict:
    def dew_line(omega):
        return ns.LinearNetwork([ns.dew(ns.DEWParams(0.9, omega))] * 12, [ns.bell_swap_povm(3)] * 11)

    lines = {"dew-13-omega-0.95": dew_line(0.95), "dew-13-omega-0.86": dew_line(0.86),
             "mixed-9-seed-3": _mixed_line()}
    out = {}
    for name, net in lines.items():
        asm = ns.line_assemblage(net)
        verdict = ns.certify_network_steering(asm)
        out[name] = {
            "elements": len(asm.outcomes),
            "matrices_sha256": hashlib.sha256(asm.matrices.tobytes()).hexdigest(),
            "row_extremes_sha256": hashlib.sha256(asm._row_extremes.tobytes()).hexdigest(),
            "status": verdict.status,
            "witness": {k: repr(v) for k, v in (verdict.witness or {}).items()},
        }
    return out


# the lines of an indent-1 report that hold ``wall_time`` and
# ``inputs.fixture``: a string's own quotes are escaped, so only a key
# starts a line with a quote followed by ``": ``
BLANKED = (' "wall_time": ', '  "fixture": ')


def _blanked(text: str) -> str:
    """A JSON report's text with the value on each ``BLANKED`` line replaced
    by ``null``, its trailing comma kept; every other byte as written."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(BLANKED):
            key = line[:line.index('": ') + 3]
            lines[i] = key + "null" + ("," if line.endswith(",") else "")
    return "\n".join(lines)


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, argv in commands(outdir):
        status = []
        for fmt in ("json", "csv"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--format", fmt, "--out", str(outdir / f"{name}.{fmt}")])
            status.append(f"{fmt} {code}\n{err.getvalue()}")
        (outdir / f"{name}.exit").write_text("".join(status))
        report = outdir / f"{name}.json"
        if report.exists():
            report.write_text(_blanked(report.read_text()))
        model_out = outdir / f"{name}.model.json"
        if model_out.exists():
            reloaded = json.dumps(model_to_json(load_model(model_out)), indent=1)
            (outdir / f"{name}.model.reloaded.json").write_text(reloaded)
        print(f"{name}: " + ", ".join(line.split("\n")[0] for line in status))
    (outdir / "library-lines.json").write_text(json.dumps(library_lines(), indent=1) + "\n")
    print("library-lines: written")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: cli_snapshot.py OUTDIR")
    run(Path(sys.argv[1]))
